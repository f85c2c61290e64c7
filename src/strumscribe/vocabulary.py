"""Rhythmic pattern vocabulary: domain types, validation, and file loading.

A vocabulary is an ordered list of expert-curated strumming patterns. Each
pattern spans 1 or 2 measures and stores its onsets as fractions of a measure
in [0, 1). A vocabulary appends one onset-free "empty" pattern per time
signature so that silent measures can always be covered.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
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

    @staticmethod
    def parse(text: str) -> TimeSignature:
        """Parse an 'N/D' string. The parses of the last _SIGNATURES_KEPT
        distinct strings are kept, so a load parses each time signature it
        reads once and its records share the value."""
        if not isinstance(text, str):  # before the memo, which would hash it
            raise VocabularyError(f"cannot parse time signature {text!r}")
        return _parse_signature(text)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


# a vocabulary or a transcription uses a handful of time signatures
_SIGNATURES_KEPT = 32


@functools.lru_cache(maxsize=_SIGNATURES_KEPT)
def _parse_signature(text: str) -> TimeSignature:
    try:
        num_text, den_text = text.strip().split("/")
        numerator, denominator = int(num_text), int(den_text)
    except ValueError as exc:
        raise VocabularyError(f"cannot parse time signature {text!r}") from exc
    return TimeSignature(numerator, denominator)


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

    # written out, not generated, because a load builds one per pattern: one
    # call that fills the frozen instance's __dict__ at once
    def __init__(
        self,
        id: str,
        time_signature: TimeSignature,
        onsets: Iterable[Iterable[float]],
        name: str | None = None,
    ) -> None:
        if not isinstance(id, str) or not id:
            raise VocabularyError(f"pattern id must be a non-empty string, got {id!r}")
        normalized = tuple([tuple(map(float, measure)) for measure in onsets])
        self.__dict__.update(id=id, time_signature=time_signature, onsets=normalized,
                             name=name, is_empty=not any(normalized))
        if len(normalized) not in (1, 2):
            raise VocabularyError(f"pattern {self.id!r}: measures must be 1 or 2, got {len(normalized)}")
        for positions in normalized:
            # strictly ascending (which no NaN is) from a first position in
            # range to a last one in range puts every position in range
            if positions and not (
                0.0 <= positions[0] and positions[-1] < 1.0
                and all(map(operator.lt, positions, positions[1:]))
            ):
                self._reject(positions)

    def _reject(self, positions: tuple[float, ...]) -> None:
        """Raise the error for the first fault of one measure's positions."""
        for p in positions:
            if not 0.0 <= p < 1.0:
                raise VocabularyError(f"pattern {self.id!r}: position {p!r} outside [0, 1)")
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

    Construction appends one empty pattern (see empty_pattern) for every
    time signature of a non-empty pattern that has none, in the order in
    which those signatures first appear. Immutable after construction;
    safe to share across workers.
    """

    patterns: tuple[RhythmicPattern, ...]
    _by_id: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        patterns = list(self.patterns)
        by_id: dict[str, RhythmicPattern] = {}
        seen_shapes: set[tuple] = set()
        # TimeSignature equality is componentwise, so its fields key shapes
        # and signatures without a call of the dataclass __hash__ per pattern
        signatures: dict[tuple[int, int], TimeSignature] = {}  # of non-empty patterns
        empties: dict[tuple[int, int], int] = {}
        for pattern in patterns:
            if pattern.id in by_id:
                raise VocabularyError(f"duplicate pattern id {pattern.id!r}")
            by_id[pattern.id] = pattern
            signature = pattern.time_signature
            key = (signature.numerator, signature.denominator)
            if pattern.is_empty:
                empties[key] = empties.get(key, 0) + 1
                continue
            shape = (key, pattern.onsets)
            if shape in seen_shapes:
                raise VocabularyError(
                    f"pattern {pattern.id!r} duplicates another pattern with the same "
                    f"time signature and onsets"
                )
            seen_shapes.add(shape)
            signatures.setdefault(key, signature)
        for key, signature in signatures.items():
            if key not in empties:
                empty = empty_pattern(signature)
                if empty.id in by_id:
                    raise VocabularyError(f"duplicate pattern id {empty.id!r}")
                by_id[empty.id] = empty
                patterns.append(empty)
        for (numerator, denominator), count in empties.items():
            if count > 1:
                raise VocabularyError(f"more than one empty pattern for {numerator}/{denominator}")
        object.__setattr__(self, "patterns", tuple(patterns))
        object.__setattr__(self, "_by_id", by_id)

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self) -> Iterator[RhythmicPattern]:
        return iter(self.patterns)

    def by_id(self, pattern_id: str) -> RhythmicPattern:
        try:
            return self._by_id[pattern_id]
        except KeyError:
            raise VocabularyError(f"unknown pattern id {pattern_id!r}") from None


_PATTERN_KEYS = {"id", "name", "time_signature", "measures", "onsets"}
# a set view that keeps the order in which a missing key is reported
_REQUIRED_KEYS = dict.fromkeys(("id", "time_signature", "measures", "onsets")).keys()


def _position(pattern_id, measure: int, index: int, value) -> float:
    """One JSON onset position as a float: an int or a float, not a bool."""
    where = f"pattern {pattern_id!r}: onsets[{measure}][{index}]"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise VocabularyError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise VocabularyError(f"{where} is out of range") from None


def _pattern_from_record(record: dict) -> RhythmicPattern:
    """One JSON pattern record as a RhythmicPattern."""
    if not isinstance(record, dict):
        raise VocabularyError(f"pattern record must be an object, got {type(record).__name__}")
    if not record.keys() <= _PATTERN_KEYS:
        raise VocabularyError(f"unknown pattern keys: {sorted(record.keys() - _PATTERN_KEYS)}")
    if not record.keys() >= _REQUIRED_KEYS:
        missing = next(key for key in _REQUIRED_KEYS if key not in record)
        raise VocabularyError(f"pattern record missing {missing!r}")
    measures = record["measures"]
    if isinstance(measures, bool) or not isinstance(measures, int):
        raise VocabularyError(
            f"pattern {record['id']!r}: measures must be an integer, got {measures!r}"
        )
    if "name" in record and not isinstance(record["name"], str):
        raise VocabularyError(f"pattern {record['id']!r}: name must be a string, got {record['name']!r}")
    onsets = record["onsets"]
    if not isinstance(onsets, list) or not all(isinstance(m, list) for m in onsets):
        raise VocabularyError(f"pattern {record['id']!r}: onsets must be a list of lists")
    signature = TimeSignature.parse(record["time_signature"])
    # JSON floats go on as they are, for RhythmicPattern to convert once;
    # anything else is read one position at a time
    if not set(map(type, itertools.chain.from_iterable(onsets))) <= {float}:
        onsets = [[_position(record["id"], m, i, p) for i, p in enumerate(measure)]
                  for m, measure in enumerate(onsets)]
    pattern = RhythmicPattern(record["id"], signature, onsets, record.get("name"))
    if measures != pattern.measures:
        raise VocabularyError(
            f"pattern {pattern.id!r}: measures field is {measures} "
            f"but onsets define {pattern.measures} measure(s)"
        )
    return pattern


def load_vocabulary(source: Union[IO[str], str]) -> Vocabulary:
    """Load and validate a vocabulary from a JSON text or text stream.

    Empty patterns (ids EMPTY_<num>_<den>) are appended for every time
    signature that appears on a non-empty pattern and has no empty pattern
    in the file already.

    A stream is read and loaded as its text. The parses of the last 4
    distinct texts are kept, so the same text gives back the same, shared
    and immutable, Vocabulary while it is kept. A failed parse is not kept.
    Text that is not JSON raises json's decode error; bytes, or a stream
    that reads bytes, raise TypeError.
    """
    text = source.read() if hasattr(source, "read") else source
    if not isinstance(text, str):
        raise TypeError(f"load_vocabulary takes text, got {type(text).__name__}")
    return _parse(text)


# each kept parse holds about 1.1 MiB at 1002 patterns: the Vocabulary, its
# text and the likelihood set-up that lives as long as the Vocabulary does
@functools.lru_cache(maxsize=4)
def _parse(text: str) -> Vocabulary:
    """The validated Vocabulary of one JSON text."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or set(payload) != {"patterns"}:
        raise VocabularyError('vocabulary JSON must be an object with a single "patterns" key')
    if not isinstance(payload["patterns"], list):
        raise VocabularyError('"patterns" must be a list')
    return Vocabulary(map(_pattern_from_record, payload["patterns"]))
