import functools

import pytest
from hypothesis import settings

from strumscribe import RhythmicPattern, TimeSignature, Vocabulary, vocabulary


# CI runs `pytest --hypothesis-profile=ci`: shared runners are too slow and
# uneven for the default 200 ms deadline, and a failure must reproduce from
# the commit alone
settings.register_profile("ci", deadline=None, derandomize=True)


def make_pattern(pattern_id, sig_text, *measure_onsets):
    return RhythmicPattern(
        id=pattern_id,
        time_signature=TimeSignature.parse(sig_text),
        onsets=tuple(tuple(m) for m in measure_onsets),
    )


def make_vocab(*specs):
    """Build a vocabulary from (id, 'N/D', onsets_per_measure...) tuples."""
    return Vocabulary(make_pattern(*spec) for spec in specs)


def vocab_payload(vocab):
    """The vocabulary file's JSON object for `vocab`: every pattern, the
    appended empty ones included, as a record that load_vocabulary reads."""
    return {"patterns": [
        {"id": p.id, "time_signature": str(p.time_signature), "measures": p.measures,
         "onsets": [list(measure) for measure in p.onsets],
         **({} if p.name is None else {"name": p.name})}
        for p in vocab
    ]}


@pytest.fixture
def basic_vocab():
    """Well-separated patterns in two time signatures, one of them 2 measures."""
    return make_vocab(
        ("QUARTERS", "4/4", [0.0, 0.25, 0.5, 0.75]),
        ("HALVES", "4/4", [0.0, 0.5]),
        ("WALTZ", "3/4", [0.0, 1 / 3, 2 / 3]),
        ("TWOBAR", "4/4", [0.0, 0.5, 0.75], [0.0, 0.25, 0.5]),
    )


@pytest.fixture
def counted_parses(monkeypatch):
    """The texts parsed behind load_vocabulary's memo during a test, which
    starts with an empty memo of the same bound. A failed parse counts."""
    texts = []
    parse = vocabulary._parse.__wrapped__

    def counting(text):
        texts.append(text)
        return parse(text)

    maxsize = vocabulary._parse.cache_parameters()["maxsize"]
    monkeypatch.setattr(vocabulary, "_parse", functools.lru_cache(maxsize=maxsize)(counting))
    return texts
