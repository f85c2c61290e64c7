import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strumscribe import (
    RhythmicPattern,
    TimeSignature,
    Vocabulary,
    VocabularyError,
    load_vocabulary,
    vocabulary,
)
from strumscribe.vocabulary import empty_pattern

from conftest import make_pattern, vocab_payload


def load_from(payload) -> Vocabulary:
    return load_vocabulary(json.dumps(payload))


class TestTimeSignature:
    def test_parse_and_str(self):
        sig = TimeSignature.parse("6/8")
        assert (sig.numerator, sig.denominator) == (6, 8)
        assert str(sig) == "6/8"

    def test_componentwise_equality(self):
        assert TimeSignature(6, 8) != TimeSignature(3, 4)
        assert TimeSignature(4, 4) == TimeSignature(4, 4)

    @pytest.mark.parametrize("num,den", [(0, 4), (-1, 4), (4, 3), (4, 0), (4, 64)])
    def test_invalid(self, num, den):
        with pytest.raises(VocabularyError):
            TimeSignature(num, den)

    @pytest.mark.parametrize("text", ["44", "4/4/4", "x/y", ""])
    def test_unparseable(self, text):
        with pytest.raises(VocabularyError):
            TimeSignature.parse(text)

    @pytest.mark.parametrize("value", [None, 44, ["4/4"], {"4": 4}],
                             ids=["null", "number", "list", "object"])
    def test_non_string_rejected_before_the_memo(self, value):
        # a list or a dict cannot be hashed, so the memo would raise TypeError
        with pytest.raises(VocabularyError, match="cannot parse time signature"):
            TimeSignature.parse(value)

    def test_parses_are_shared_and_bounded(self):
        assert TimeSignature.parse("7/8") is TimeSignature.parse("7/8")
        kept = vocabulary._parse_signature.cache_parameters()["maxsize"]
        assert kept is not None
        for numerator in range(1, kept + 2):
            TimeSignature.parse(f"{numerator}/4")
        assert vocabulary._parse_signature.cache_info().currsize == kept


class TestRhythmicPattern:
    def test_basic(self):
        p = make_pattern("P1", "4/4", [0.0, 0.5])
        assert p.measures == 1
        assert not p.is_empty

    def test_is_empty_iff_all_measures_empty(self):
        assert make_pattern("E", "4/4", []).is_empty
        assert not make_pattern("H", "4/4", [0.0], []).is_empty

    def test_position_at_one_rejected(self):
        with pytest.raises(VocabularyError):
            make_pattern("P", "4/4", [0.0, 1.0])

    def test_non_ascending_rejected(self):
        with pytest.raises(VocabularyError):
            make_pattern("P", "4/4", [0.5, 0.25])

    def test_duplicate_position_rejected(self):
        with pytest.raises(VocabularyError):
            make_pattern("P", "4/4", [0.25, 0.25])

    def test_three_measures_rejected(self):
        with pytest.raises(VocabularyError):
            make_pattern("P", "4/4", [0.0], [0.0], [0.0])

    @given(st.lists(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, -0.0, float("nan")]),
                                       st.floats(-0.5, 1.5)), max_size=5),
                    min_size=1, max_size=2))
    def test_error_is_the_first_fault_checked_position_by_position(self, measures):
        # per measure, every position's range first, then the ascending order
        expected = None
        for positions in measures:
            bad = next((p for p in positions if not 0.0 <= p < 1.0), None)
            if bad is not None or any(b <= a for a, b in zip(positions, positions[1:])):
                expected = (f"pattern 'P': position {bad!r} outside [0, 1)" if bad is not None
                            else "pattern 'P': positions must be strictly ascending")
                break
        try:
            make_pattern("P", "4/4", *measures)
        except VocabularyError as exc:
            assert str(exc) == expected
        else:
            assert expected is None


class TestLoadVocabulary:
    def test_single_pattern_gets_empty(self):
        vocab = load_from(
            {"patterns": [{"id": "P1", "time_signature": "4/4", "measures": 1,
                           "onsets": [[0.0, 0.25, 0.5, 0.75]]}]}
        )
        assert [p.id for p in vocab] == ["P1", "EMPTY_4_4"]
        assert vocab.by_id("EMPTY_4_4").is_empty

    def test_one_empty_per_signature(self):
        vocab = load_from(
            {"patterns": [
                {"id": "A", "time_signature": "4/4", "measures": 1, "onsets": [[0.0]]},
                {"id": "B", "time_signature": "3/4", "measures": 1, "onsets": [[0.0]]},
            ]}
        )
        empties = [p for p in vocab if p.is_empty]
        assert len(empties) == 2
        assert {str(p.time_signature) for p in empties} == {"4/4", "3/4"}

    def test_non_ascending_positions_error(self):
        with pytest.raises(VocabularyError):
            load_from({"patterns": [{"id": "P", "time_signature": "4/4",
                                     "measures": 1, "onsets": [[0.5, 0.25]]}]})

    def test_measures_field_must_match(self):
        with pytest.raises(VocabularyError):
            load_from({"patterns": [{"id": "P", "time_signature": "4/4",
                                     "measures": 2, "onsets": [[0.0]]}]})

    def test_duplicate_id_rejected(self):
        with pytest.raises(VocabularyError):
            load_from({"patterns": [
                {"id": "P", "time_signature": "4/4", "measures": 1, "onsets": [[0.0]]},
                {"id": "P", "time_signature": "4/4", "measures": 1, "onsets": [[0.5]]},
            ]})

    def test_duplicate_shape_rejected(self):
        with pytest.raises(VocabularyError):
            load_from({"patterns": [
                {"id": "A", "time_signature": "4/4", "measures": 1, "onsets": [[0.0, 0.5]]},
                {"id": "B", "time_signature": "4/4", "measures": 1, "onsets": [[0.0, 0.5]]},
            ]})

    def test_same_onsets_other_signature_allowed(self):
        vocab = load_from({"patterns": [
            {"id": "A", "time_signature": "4/4", "measures": 1, "onsets": [[0.0, 0.5]]},
            {"id": "B", "time_signature": "3/4", "measures": 1, "onsets": [[0.0, 0.5]]},
        ]})
        assert len(vocab) == 4

    def test_explicit_empty_not_duplicated(self):
        vocab = load_from({"patterns": [
            {"id": "SILENT", "time_signature": "4/4", "measures": 1, "onsets": [[]]},
            {"id": "A", "time_signature": "4/4", "measures": 1, "onsets": [[0.0]]},
        ]})
        empties = [p for p in vocab if p.is_empty]
        assert [p.id for p in empties] == ["SILENT"]

    def test_unknown_key_rejected(self):
        with pytest.raises(VocabularyError):
            load_from({"patterns": [{"id": "P", "time_signature": "4/4",
                                     "measures": 1, "onsets": [[0.0]], "tempo": 100}]})

    @pytest.mark.parametrize("record,message", [
        ({"measures": 1}, "pattern record missing 'id'"),
        ({"id": "P", "measures": 1}, "pattern record missing 'time_signature'"),
        ({"id": "P", "time_signature": "4/4"}, "pattern record missing 'measures'"),
        ({"id": "P", "time_signature": "4/4", "measures": 1},
         "pattern record missing 'onsets'"),
        ({"tempo": 1, "bpm": 2}, "unknown pattern keys: ['bpm', 'tempo']"),
    ])
    def test_record_key_errors(self, record, message):
        with pytest.raises(VocabularyError) as excinfo:
            load_from({"patterns": [record]})
        assert str(excinfo.value) == message

    def test_one_time_signature_value_per_text(self):
        vocab = load_from({"patterns": [
            {"id": "A", "time_signature": "4/4", "measures": 1, "onsets": [[0.0]]},
            {"id": "B", "time_signature": "4/4", "measures": 1, "onsets": [[0.5]]},
            {"id": "C", "time_signature": " 4/4", "measures": 1, "onsets": [[0.25]]},
        ]})
        assert vocab.by_id("A").time_signature is vocab.by_id("B").time_signature
        assert vocab.by_id("C").time_signature == vocab.by_id("A").time_signature
        assert [p.id for p in vocab] == ["A", "B", "C", "EMPTY_4_4"]

    def test_integer_positions_read_as_floats(self):
        def load(first):
            return load_from({"patterns": [{"id": "P", "time_signature": "4/4",
                                            "measures": 2, "onsets": [first, [0.25]]}]})

        ints, floats = load([0, 0.5]), load([0.0, 0.5])
        assert ints == floats
        assert {type(p) for m in ints.by_id("P").onsets for p in m} == {float}

    def test_unhashable_time_signature_rejected(self):
        with pytest.raises(VocabularyError, match="cannot parse time signature"):
            load_from({"patterns": [{"id": "P", "time_signature": [4, 4],
                                     "measures": 1, "onsets": [[0.0]]}]})

    def test_bad_json(self):
        with pytest.raises(json.JSONDecodeError):
            load_vocabulary("{not json")

    @pytest.mark.parametrize("source", ["bytes", "byte_stream"])
    def test_bytes_rejected_before_the_memo(self, counted_parses, source):
        data = json.dumps(
            {"patterns": [{"id": "P", "time_signature": "4/4",
                           "measures": 1, "onsets": [[0.0]]}]}
        ).encode()
        with pytest.raises(TypeError, match="load_vocabulary takes text, got bytes"):
            load_vocabulary(data if source == "bytes" else io.BytesIO(data))
        assert counted_parses == []


class TestMemo:
    """load_vocabulary keeps the parses of its last few distinct texts."""

    def test_same_text_gives_the_same_object(self, basic_vocab, counted_parses):
        text = json.dumps(vocab_payload(basic_vocab))
        first = load_vocabulary(text)
        assert load_vocabulary(io.StringIO(text)) is first
        assert load_vocabulary(text) is first
        other = load_vocabulary(text + " ")
        assert other == first and other is not first
        assert len(counted_parses) == 2

    def test_failed_parse_is_not_kept(self, counted_parses):
        record = {"id": "P", "time_signature": "4/4", "measures": 1, "onsets": [[0.0]]}
        for _ in range(2):
            with pytest.raises(VocabularyError, match="duplicate pattern id"):
                load_from({"patterns": [record, record]})
        assert len(counted_parses) == 2
        assert vocabulary._parse.cache_info().currsize == 0

    def test_bounded(self, basic_vocab, counted_parses):
        kept = vocabulary._parse.cache_parameters()["maxsize"]
        texts = [json.dumps(vocab_payload(basic_vocab)) + " " * i for i in range(kept + 1)]
        first = load_vocabulary(texts[0])
        for text in texts[1:]:
            load_vocabulary(text)
        assert vocabulary._parse.cache_info().currsize == kept
        # the least recently used text went; a kept one is not parsed again
        load_vocabulary(texts[-1])
        assert load_vocabulary(texts[0]) is not first
        assert len(counted_parses) == len(texts) + 1


def test_round_trip(basic_vocab):
    # basic_vocab holds a 2-measure pattern, which the property test below
    # does not draw
    assert load_vocabulary(json.dumps(vocab_payload(basic_vocab), indent=2)) == basic_vocab


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["4/4", "3/4", "6/8"]),
            st.lists(st.integers(0, 15), min_size=1, max_size=6, unique=True),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_round_trip_property(specs):
    patterns = []
    seen = set()
    for i, (sig, grid) in enumerate(specs):
        onsets = tuple(g / 16 for g in sorted(grid))
        if (sig, onsets) in seen:
            continue
        seen.add((sig, onsets))
        patterns.append(make_pattern(f"P{i}", sig, onsets))
    vocab = Vocabulary(patterns)
    assert load_vocabulary(json.dumps(vocab_payload(vocab))) == vocab
    empties = sum(1 for p in vocab if p.is_empty)
    assert empties == len({p.time_signature for p in vocab if not p.is_empty})


def test_empty_pattern_id_format():
    assert empty_pattern(TimeSignature(6, 8)).id == "EMPTY_6_8"


def test_constructor_appends_empties_as_a_load_does():
    # the empties go after the patterns, in the order their time signatures
    # first appear
    patterns = (make_pattern("P", "4/4", [0.0]), make_pattern("W", "3/4", [0.0]),
                make_pattern("Q", "4/4", [0.5]))
    vocab = Vocabulary(patterns)
    assert [p.id for p in vocab] == ["P", "W", "Q", "EMPTY_4_4", "EMPTY_3_4"]
    assert vocab == load_from({"patterns": [
        {"id": "P", "time_signature": "4/4", "measures": 1, "onsets": [[0.0]]},
        {"id": "W", "time_signature": "3/4", "measures": 1, "onsets": [[0.0]]},
        {"id": "Q", "time_signature": "4/4", "measures": 1, "onsets": [[0.5]]},
    ]})
    assert Vocabulary(vocab) == vocab


def test_constructor_keeps_a_given_empty_pattern():
    silent = make_pattern("SILENT", "4/4", [])
    vocab = Vocabulary((make_pattern("P", "4/4", [0.0]), silent))
    assert [p.id for p in vocab] == ["P", "SILENT"]
    with pytest.raises(VocabularyError, match="more than one empty pattern for 4/4"):
        Vocabulary((silent, make_pattern("QUIET", "4/4", [])))


def test_appended_empty_pattern_id_must_be_free():
    with pytest.raises(VocabularyError, match="duplicate pattern id 'EMPTY_4_4'"):
        Vocabulary((make_pattern("EMPTY_4_4", "4/4", [0.0]),))
