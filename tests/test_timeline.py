import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strumscribe import BarlineTrack, MeasureStrums, StrumSequence, bin_strums
from strumscribe.timeline import (
    MIN_STRUM_GAP_SEC,
    load_barlines,
    load_strums,
    save_barlines,
    save_strums,
)

from oracles import numpy_bin_strums


class TestBarlineTrack:
    def test_measure_count(self):
        assert BarlineTrack((0.0, 2.0, 4.0)).measure_count == 2

    def test_needs_two_times(self):
        with pytest.raises(ValueError):
            BarlineTrack((1.0,))

    def test_strictly_ascending(self):
        with pytest.raises(ValueError):
            BarlineTrack((0.0, 2.0, 2.0))

    def test_finite(self):
        with pytest.raises(ValueError):
            BarlineTrack((0.0, float("nan")))


class TestStrumSequence:
    def test_ok(self):
        assert len(StrumSequence((0.0, 1.0, 2.5))) == 3

    def test_decreasing_rejected(self):
        with pytest.raises(ValueError):
            StrumSequence((1.0, 0.5))

    def test_duplicates_within_1ms_rejected(self):
        with pytest.raises(ValueError):
            StrumSequence((1.0, 1.0005))

    def test_exactly_1ms_ok(self):
        assert len(StrumSequence((1.0, 1.001))) == 2


class TestMeasureStrums:
    def test_position_range(self):
        with pytest.raises(ValueError):
            MeasureStrums(0, (1.0,))
        with pytest.raises(ValueError):
            MeasureStrums(0, (-0.1,))


class TestBinStrums:
    def test_basic(self):
        measures, discarded = bin_strums(
            StrumSequence((1.0, 2.0, 2.5)), BarlineTrack((1.0, 3.0, 5.0))
        )
        assert discarded == 0
        assert measures[0].positions == (0.0, 0.5, 0.75)
        assert measures[1].positions == ()

    def test_out_of_range_discarded(self):
        measures, discarded = bin_strums(StrumSequence((0.5,)), BarlineTrack((1.0, 3.0)))
        assert discarded == 1
        assert measures[0].positions == ()

    def test_empty_strums(self):
        measures, discarded = bin_strums(StrumSequence(()), BarlineTrack((0.0, 2.0)))
        assert discarded == 0
        assert len(measures) == 1 and measures[0].positions == ()

    def test_strum_on_barline_starts_measure(self):
        measures, _ = bin_strums(StrumSequence((2.0,)), BarlineTrack((0.0, 2.0, 4.0)))
        assert measures[1].positions == (0.0,)

    def test_strum_at_final_barline_discarded(self):
        measures, discarded = bin_strums(StrumSequence((4.0,)), BarlineTrack((0.0, 2.0, 4.0)))
        assert discarded == 1

    def test_position_stays_below_one(self):
        # a strum one float step below a bar line must not normalize to 1.0
        t = np.nextafter(4.0, 0.0)
        measures, _ = bin_strums(StrumSequence((t,)), BarlineTrack((0.0, 4.0)))
        assert measures[0].positions[0] < 1.0


times_lists = st.lists(
    st.floats(min_value=0.01, max_value=0.99, allow_nan=False), min_size=0, max_size=10
)


@given(
    strums=times_lists,
    delta=st.floats(min_value=-50, max_value=50, allow_nan=False),
)
def test_shift_invariance(strums, delta):
    strums = sorted(set(round(s, 2) for s in strums))
    bars = BarlineTrack((0.0, 1.0, 2.0))
    base = StrumSequence(tuple(s + bars.times_sec[0] for s in strums))
    shifted = StrumSequence(tuple(s + delta for s in base.times_sec))
    shifted_bars = BarlineTrack(tuple(t + delta for t in bars.times_sec))
    left, _ = bin_strums(base, bars)
    right, _ = bin_strums(shifted, shifted_bars)
    for a, b in zip(left, right):
        assert a.positions == pytest.approx(b.positions, abs=1e-9)


@given(
    strums=times_lists,
    scale=st.floats(min_value=0.1, max_value=10, allow_nan=False),
)
def test_scale_invariance(strums, scale):
    strums = sorted(set(round(s, 2) for s in strums))
    bars = BarlineTrack((0.0, 1.0, 2.0))
    base = StrumSequence(tuple(strums))
    scaled = StrumSequence(tuple(s * scale for s in strums))
    scaled_bars = BarlineTrack(tuple(t * scale for t in bars.times_sec))
    left, _ = bin_strums(base, bars)
    right, _ = bin_strums(scaled, scaled_bars)
    for a, b in zip(left, right):
        assert a.positions == pytest.approx(b.positions, abs=1e-9)


@given(st.lists(st.floats(min_value=-2, max_value=8, allow_nan=False), max_size=20))
def test_partition(times):
    times = sorted(set(round(t, 2) for t in times))
    strums = StrumSequence(tuple(times))
    bars = BarlineTrack((0.0, 1.5, 3.0, 4.5))
    measures, discarded = bin_strums(strums, bars)
    assert sum(len(m.positions) for m in measures) + discarded == len(strums)


@st.composite
def binning_cases(draw):
    """A bar-line track and strums picked from its own floats: on a bar
    line, one float step below one (before the first bar line when it is
    the first), anywhere from before the first bar line to past the last,
    thinned to the 1 ms strum gap."""
    bars = sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=8, unique=True)))
    picks = st.one_of(
        st.sampled_from(bars),
        st.sampled_from(bars).map(lambda t: math.nextafter(t, -math.inf)),
        st.floats(bars[0] - 10, bars[-1] + 10),
    )
    strums: list[float] = []
    for t in sorted(draw(st.lists(picks, max_size=30))):
        if not strums or t - strums[-1] >= MIN_STRUM_GAP_SEC:
            strums.append(t)
    return StrumSequence(tuple(strums)), BarlineTrack(tuple(bars))


@settings(max_examples=300, deadline=None)
@given(binning_cases())
# on the first, a middle and the last bar line, before the first and past
# the last
@example((StrumSequence((-1.0, 0.3, 1.0, 2.5, 3.0)), BarlineTrack((0.3, 1.0, 2.5))))
# (t - 0.3) / (1.0 - 0.3) rounds to 1.0 for t one step below 1.0
@example((StrumSequence((math.nextafter(1.0, 0.0),)), BarlineTrack((0.3, 1.0))))
def test_binning_matches_numpy_scalars(case):
    strums, bars = case
    got, got_discarded = bin_strums(strums, bars)
    want, want_discarded = numpy_bin_strums(strums, bars)
    assert got_discarded == want_discarded
    assert got == want
    assert [[p.hex() for p in m.positions] for m in got] == [
        [p.hex() for p in m.positions] for m in want
    ]


class TestJson:
    def test_strums_round_trip(self):
        strums = StrumSequence((0.5, 1.5))
        buffer = io.StringIO()
        save_strums(strums, buffer)
        assert load_strums(io.StringIO(buffer.getvalue())) == strums

    def test_barlines_round_trip(self):
        bars = BarlineTrack((0.0, 2.0))
        buffer = io.StringIO()
        save_barlines(bars, buffer)
        assert load_barlines(io.StringIO(buffer.getvalue())) == bars

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            load_strums(io.StringIO(json.dumps({"strums_sec": [], "extra": 1})))
        with pytest.raises(ValueError):
            load_barlines(io.StringIO(json.dumps({"bars": [0, 1]})))
