from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strumscribe import BarlineTrack, PostprocConfig, discontinuity_rate, postprocess_barlines

from oracles import brute_barline_cost, numpy_postprocess_barlines_with_cost
from strumscribe.barlines import postprocess_barlines_with_cost, span_deletions, tempo_step_cost


class TestPostprocConfig:
    def test_defaults(self):
        cfg = PostprocConfig()
        assert cfg.subdivision_factors == (1, 2, 3, 4)
        assert cfg.deletion_penalty == 1.0
        assert cfg.tempo_change_penalty == 8.0
        assert cfg.snap_tolerance_sec == 0.07

    def test_factors_normalized(self):
        assert PostprocConfig(subdivision_factors=(3, 1, 2, 2)).subdivision_factors == (1, 2, 3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"subdivision_factors": (0, 1)},
            {"deletion_penalty": -1},
            {"tempo_change_penalty": -1},
            {"snap_tolerance_sec": 0},
            {"lookahead": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PostprocConfig(**kwargs)

    @pytest.mark.parametrize(
        "field", ["deletion_penalty", "insertion_penalty", "tempo_change_penalty"]
    )
    def test_nan_penalty_rejected(self, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            PostprocConfig(**{field: np.nan})


class TestPostprocessBarlines:
    def test_steady_track_unchanged(self):
        raw = BarlineTrack(tuple(2.0 * i for i in range(10)))
        assert postprocess_barlines(raw) == raw

    def test_spurious_line_deleted(self):
        raw = BarlineTrack((0.0, 2.0, 3.0, 4.0, 6.0))
        assert postprocess_barlines(raw).times_sec == (0.0, 2.0, 4.0, 6.0)

    def test_missed_line_restored_by_subdivision(self):
        raw = BarlineTrack((0.0, 2.0, 6.0, 8.0))
        assert postprocess_barlines(raw).times_sec == (0.0, 2.0, 4.0, 6.0, 8.0)

    def test_endpoints_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            times = np.cumsum(rng.uniform(0.5, 3.0, size=rng.integers(2, 9)))
            raw = BarlineTrack(tuple(times))
            out = postprocess_barlines(raw)
            assert out.times_sec[0] == raw.times_sec[0]
            assert out.times_sec[-1] == raw.times_sec[-1]
            assert all(b > a for a, b in zip(out.times_sec, out.times_sec[1:]))

    def test_idempotent_on_steady_tempo(self):
        raw = BarlineTrack((0.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 14.0))
        once = postprocess_barlines(raw)
        assert postprocess_barlines(once) == once

    def test_matches_brute_force_cost(self):
        rng = np.random.default_rng(17)
        cfg = PostprocConfig(subdivision_factors=(1, 2, 3))
        for _ in range(25):
            n = int(rng.integers(3, 9))
            base = np.cumsum(rng.uniform(1.0, 2.5, size=n))
            # corrupt: maybe drop one interior line, maybe add one spurious
            times = list(base)
            if len(times) > 3 and rng.random() < 0.5:
                times.pop(int(rng.integers(1, len(times) - 1)))
            if rng.random() < 0.5:
                j = int(rng.integers(0, len(times) - 1))
                times.append(float(rng.uniform(times[j] + 0.1, times[j + 1] - 0.1)))
            times = sorted(times)
            raw = BarlineTrack(tuple(times))
            dp_cost = _dp_cost(raw, cfg)
            assert dp_cost == pytest.approx(brute_barline_cost(times, cfg), abs=1e-9)

    def test_unbounded_lookahead_matches_full_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(4, 8))
            times = sorted(rng.uniform(0, 10, size=n).tolist())
            times = [t for i, t in enumerate(times) if i == 0 or t - times[i - 1] > 0.2]
            if len(times) < 3:
                continue
            cfg = PostprocConfig(subdivision_factors=(1, 2), lookahead=len(times))
            assert _dp_cost(BarlineTrack(tuple(times)), cfg) == pytest.approx(
                brute_barline_cost(times, cfg), abs=1e-9
            )


@st.composite
def barline_cases(draw):
    """(track, cfg). A grid track puts every line on a multiple of one step,
    so measure lengths repeat exactly and many edit sequences tie; zero
    penalties add more ties."""
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        step = draw(st.sampled_from([0.1, 0.25, 1 / 3, 0.5, 2.0]))
        ticks = draw(st.lists(st.integers(0, 48), min_size=n, max_size=n, unique=True))
        times = [tick * step for tick in sorted(ticks)]
    else:
        start = draw(st.floats(0.0, 100.0))
        gaps = draw(st.lists(st.floats(0.05, 4.0), min_size=n - 1, max_size=n - 1))
        times = list(accumulate(gaps, initial=start))
    penalty = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    cfg = PostprocConfig(
        subdivision_factors=tuple(draw(st.sets(st.integers(1, 4), min_size=1))),
        deletion_penalty=draw(penalty),
        insertion_penalty=draw(penalty),
        tempo_change_penalty=draw(st.sampled_from([0.0, 1.0, 8.0])),
        snap_tolerance_sec=draw(st.sampled_from([0.07, 0.3])),
        lookahead=draw(st.integers(1, 5)),
    )
    return BarlineTrack(tuple(times)), cfg


class TestPythonFloatDP:
    @settings(max_examples=300, deadline=None)
    @given(barline_cases())
    # a steady grid with a missed line and a spurious one: keeping or
    # subdividing tie when insertions and deletions are free
    @example(case=(BarlineTrack((0.0, 0.5, 1.0, 2.0, 2.25, 2.5, 3.0)),
                   PostprocConfig(deletion_penalty=0.0, insertion_penalty=0.0)))
    @example(case=(BarlineTrack(tuple(0.1 * t for t in (0, 3, 6, 9, 15, 18, 19, 21))),
                   PostprocConfig(tempo_change_penalty=0.0)))
    def test_same_times_and_cost_as_numpy_scalars(self, case):
        raw, cfg = case
        got_track, got_cost = postprocess_barlines_with_cost(raw, cfg)
        want_track, want_cost = numpy_postprocess_barlines_with_cost(raw, cfg)
        assert got_track.times_sec == want_track.times_sec
        assert got_cost == want_cost


def _dp_cost(raw: BarlineTrack, cfg: PostprocConfig) -> float:
    return postprocess_barlines_with_cost(raw, cfg)[1]


class TestSpanHelpers:
    def test_span_deletions_near_duplicates_free(self):
        times = np.array([0.0, 0.05, 2.0, 3.95, 4.0])
        cfg = PostprocConfig()
        # 0.05 and 3.95 duplicate the kept endpoints; 2.0 is a real deletion
        assert span_deletions(times, 0, 4, cfg) == 1

    def test_near_duplicate_removed_for_free(self):
        raw = BarlineTrack((0.0, 2.0, 2.04, 4.0, 6.0))
        out, cost = postprocess_barlines_with_cost(raw)
        assert out.times_sec == (0.0, 2.0, 4.0, 6.0)
        assert cost == 0.0

    def test_tempo_step_cost_free_band(self):
        cfg = PostprocConfig(tempo_change_penalty=8.0)
        assert tempo_step_cost(2.0, 2.09, cfg) == 0.0
        assert tempo_step_cost(2.0, 3.0, cfg) == pytest.approx(8.0 * (0.5 - 0.05))


class TestDiscontinuityRate:
    def test_one_jump(self):
        assert discontinuity_rate(BarlineTrack((0.0, 2.0, 4.0, 5.0, 6.0))) == 0.25

    def test_constant(self):
        assert discontinuity_rate(BarlineTrack((0.0, 2.0, 4.0, 6.0))) == 0.0

    def test_thirty_percent_is_continuous(self):
        assert discontinuity_rate(BarlineTrack((0.0, 2.0, 4.6))) == 0.0

    def test_single_measure_is_zero(self):
        assert discontinuity_rate(BarlineTrack((0.0, 2.0))) == 0.0
