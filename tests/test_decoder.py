import hashlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from strumscribe import (
    BarlineTrack,
    DecoderConfig,
    MeasureStrums,
    Transcription,
    TranscriptionEntry,
    TimeSignature,
    Vocabulary,
    bin_strums,
    decode,
    reconstruct_strums,
)
from strumscribe import decoder as decoder_module
from strumscribe.decoder import _enter, load_transcription, save_transcription

from conftest import make_pattern, make_vocab
from oracles import (
    _group_top2,
    _relax_entry,
    enumerate_decode,
    half_cost,
    indented_save_transcription,
    lexsort_decode,
    per_record_transcription_from_dict,
    transition,
)
from test_acceptance import c10_instance


def measures_from(*position_lists):
    return [MeasureStrums(i, tuple(ps)) for i, ps in enumerate(position_lists)]


def random_instance(
    rng, max_measures=8, sigma_choices=(0.03, 0.1, 0.5), signatures=("4/4", "3/4")
):
    """A random decode problem: small vocabulary (one 2-measure pattern,
    empties included) plus measures drawn from it with optional noise. A
    one-measure pattern that repeats an earlier one's time signature and
    onsets is redrawn, since Vocabulary rejects it."""
    patterns = []
    n_one = int(rng.integers(2, 4))
    while len(patterns) < n_one:
        size = int(rng.integers(1, 5))
        grid = rng.choice(16, size=size, replace=False)
        pattern = make_pattern(
            f"P{len(patterns)}", signatures[int(rng.integers(len(signatures)))], sorted(grid / 16)
        )
        if all((p.time_signature, p.onsets) != (pattern.time_signature, pattern.onsets)
               for p in patterns):
            patterns.append(pattern)
    halves = [sorted(rng.choice(16, size=2, replace=False) / 16) for _ in range(2)]
    patterns.append(
        make_pattern("TWO", signatures[int(rng.integers(len(signatures)))], *halves)
    )
    vocab = Vocabulary(patterns)
    cfg = DecoderConfig(
        timing_sigma=float(rng.choice(sigma_choices)),
        pattern_change_penalty=float(rng.choice([0.0, 0.5, 2.0])),
        timesig_change_penalty=float(rng.choice([0.0, 1.0, 6.0])),
    )
    n_measures = int(rng.integers(1, max_measures + 1))
    measures = []
    for m in range(n_measures):
        if rng.random() < 0.2:
            measures.append(MeasureStrums(m, ()))
            continue
        source = vocab.patterns[int(rng.integers(len(vocab)))]
        base = list(source.onsets[int(rng.integers(source.measures))])
        jitter = rng.normal(0, 0.02, size=len(base))
        noisy = sorted(set(min(max(p + j, 0.0), 0.999) for p, j in zip(base, jitter)))
        measures.append(MeasureStrums(m, tuple(noisy)))
    return measures, vocab, cfg


class TestDecodeExamples:
    def test_exact_three_measures(self):
        vocab = make_vocab(("A", "4/4", [0.0, 0.5]), ("B", "3/4", [0.0, 1 / 3, 2 / 3]))
        cfg = DecoderConfig(pattern_change_penalty=2.0, timesig_change_penalty=6.0)
        measures = measures_from([0.0, 0.5], [0.0, 0.5], [0.0, 1 / 3, 2 / 3])
        result = decode(measures, vocab, cfg)
        assert [e.pattern_id for e in result.entries] == ["A", "A", "B"]
        assert result.total_cost == pytest.approx(
            cfg.pattern_change_penalty + cfg.timesig_change_penalty
        )

    def test_all_empty_measures(self):
        vocab = make_vocab(("A", "4/4", [0.0, 0.5]))
        result = decode(measures_from((), (), ()), vocab, DecoderConfig())
        assert [e.pattern_id for e in result.entries] == ["EMPTY_4_4"] * 3
        assert result.total_cost == 0.0

    def test_two_measure_pattern_cannot_start_at_final_measure(self):
        vocab = make_vocab(
            ("TWO", "4/4", [0.0, 0.5], [0.25, 0.75]),
            ("ONE", "4/4", [0.0, 0.5]),
        )
        result = decode(measures_from([0.0, 0.5]), vocab, DecoderConfig())
        assert [e.pattern_id for e in result.entries] == ["ONE"]

    def test_two_measure_pattern_wins_over_pair(self):
        vocab = make_vocab(
            ("TWO", "4/4", [0.0, 0.5, 0.75], [0.0, 0.25]),
            ("X", "4/4", [0.0, 0.5, 0.75]),
            ("Y", "4/4", [0.0, 0.25]),
        )
        cfg = DecoderConfig(pattern_change_penalty=1.0)
        result = decode(measures_from([0.0, 0.5, 0.75], [0.0, 0.25]), vocab, cfg)
        assert [(e.pattern_id, e.phase) for e in result.entries] == [("TWO", 0), ("TWO", 1)]
        assert result.total_cost == 0.0

    def test_empty_measure_list_rejected(self):
        with pytest.raises(ValueError):
            decode([], make_vocab(("A", "4/4", [0.0])), DecoderConfig())

    def test_infeasible_raises(self):
        # only 2-measure non-empty patterns: a 1-measure played song has no cover
        vocab = make_vocab(("TWO", "4/4", [0.0], [0.5]))
        with pytest.raises(ValueError):
            decode(measures_from([0.0]), vocab, DecoderConfig())

    @pytest.mark.parametrize(
        "played, uncovered",
        [
            ("x", 0),
            ("xxx", 2),  # TWO covers 0-1 and cannot start at the final measure
            ("xx-x", 3),  # the silent measure 2 is covered by the empty pattern
            ("x-xx", 0),  # TWO's second half cannot cover a silent measure
            ("-xxx", 3),
            ("xx-xxx-", 5),  # the prefix up to measure 4 is covered, measure 5 not
        ],
    )
    def test_infeasible_names_first_uncovered_measure(self, played, uncovered):
        # the only played pattern spans 2 measures; "x" is a played measure
        vocab = make_vocab(("TWO", "4/4", [0.0], [0.5]))
        measures = measures_from(*([0.0] if c == "x" else [] for c in played))
        message = f"no feasible pattern assignment: measure {uncovered} cannot be covered"
        with pytest.raises(ValueError, match=f"^{message}$"):
            decode(measures, vocab, DecoderConfig())


class TestOracleEquivalence:
    def test_small_random_instances(self):
        rng = np.random.default_rng(1234)
        for _ in range(40):
            measures, vocab, cfg = random_instance(rng, max_measures=6)
            expected = enumerate_decode(measures, vocab, cfg)
            result = decode(measures, vocab, cfg)
            assert expected is not None
            assert result.total_cost == pytest.approx(expected[0], abs=1e-9)
            assert [(e.pattern_id, e.phase) for e in result.entries] == expected[1]

    def test_three_and_four_signatures(self):
        # three or more signature groups: a state in the champion group takes
        # its cross-signature switch from the best of two or more other groups
        rng = np.random.default_rng(4321)
        for _ in range(60):
            n_sigs = int(rng.integers(3, 5))
            measures, vocab, cfg = random_instance(
                rng, max_measures=6, signatures=("4/4", "3/4", "6/8", "5/4")[:n_sigs]
            )
            expected = enumerate_decode(measures, vocab, cfg)
            result = decode(measures, vocab, cfg)
            assert expected is not None
            assert result.total_cost == pytest.approx(expected[0], abs=1e-9)
            assert [(e.pattern_id, e.phase) for e in result.entries] == expected[1]

    def test_random_instance_never_repeats_a_pattern(self):
        # with this seed, drawing without the redraw repeats a pattern at
        # call 57, 18 times in all
        rng = np.random.default_rng(5)
        for _ in range(3000):
            random_instance(rng, max_measures=10)

    def test_tie_break_reads_back_from_last_measure(self):
        # A, A, B and A, B, B tie on cost and on changes. The oracle takes the
        # lexicographically smaller A, A, B; the decoder takes B at the last
        # measure, then repeats it wherever a repeat ties.
        vocab = make_vocab(("A", "4/4", [0.0]), ("B", "4/4", [0.5]))
        measures = measures_from([0.0], [0.0, 0.5], [0.5])
        cfg = DecoderConfig()
        result = decode(measures, vocab, cfg)
        expected_cost, expected_labels = enumerate_decode(measures, vocab, cfg)
        assert [e.pattern_id for e in result.entries] == ["A", "B", "B"]
        assert result.total_cost.hex() == expected_cost.hex()
        assert [pattern_id for pattern_id, _ in expected_labels] == ["A", "A", "B"]

    def test_tie_breaks_prefer_stay_then_index(self):
        # two identical-cost empties: constant run of the lower-index one wins
        vocab = make_vocab(("A", "4/4", [0.0]), ("B", "3/4", [0.0]))
        result = decode(measures_from((), (), ()), vocab, DecoderConfig())
        assert [e.pattern_id for e in result.entries] == ["EMPTY_4_4"] * 3

    def test_rounding_tie_settled_by_partial_sums(self):
        # both tilings total the same, but into P0 (a + 0.5) + 1.5 is one
        # ulp below (a + 1.5) + 0.5: the forward pass keeps EMPTY_3_4, where
        # the backward rule alone would take the lower-index EMPTY_4_4
        vocab = make_vocab(("P0", "4/4", [0.0, 1 / 16, 3 / 16]), ("P1", "3/4", [0.75]))
        measures = measures_from([0.7095379170839322], [], [1e-06])
        cfg = DecoderConfig(0.1, 0.5, 1.0)
        result = decode(measures, vocab, cfg)
        expected_cost, expected_labels = enumerate_decode(measures, vocab, cfg)
        assert [e.pattern_id for e in result.entries] == ["P1", "EMPTY_3_4", "P0"]
        assert result.total_cost.hex() == expected_cost.hex() == "0x1.0779f24522ea8p+2"
        assert [pattern_id for pattern_id, _ in expected_labels] == ["P1", "EMPTY_4_4", "P0"]

    def test_oracle_cost_squares_as_the_library_does(self):
        # (1e-12 - 0.1875) ** 2 rounds one ulp away from the product numpy
        # takes; the oracle squares by a product, so its cost is decode's
        vocab = make_vocab(("P", "4/4", [0.1875]))
        measures = measures_from([1e-12])
        cfg = DecoderConfig(timing_sigma=0.03)
        expected_cost, _ = enumerate_decode(measures, vocab, cfg)
        assert decode(measures, vocab, cfg).total_cost.hex() == expected_cost.hex()
        assert expected_cost.hex() == "0x1.387ffffff1af0p+5"


SIGNATURES = ("4/4", "3/4", "6/8", "5/4")

grid_half = st.lists(st.integers(0, 15), min_size=1, max_size=4, unique=True).map(
    lambda xs: tuple(sorted(x / 16 for x in xs))
)


@st.composite
def relaxation_cases(draw):
    """(measures, vocab, cfg) built for exact ties: 1 to 4 time signatures,
    1 to 12 patterns (some of them 2-measure), change penalties that may be
    zero, and silent measures or measures copied exactly from pattern
    onsets, which give equal emission costs."""
    n_sigs = draw(st.integers(1, 4))
    shapes = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_sigs - 1),
                st.lists(grid_half, min_size=1, max_size=2).map(tuple),
            ),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    vocab = Vocabulary(
        make_pattern(f"P{i}", SIGNATURES[sig], *halves) for i, (sig, halves) in enumerate(shapes)
    )
    copied = st.sampled_from([half for p in vocab.patterns for half in p.onsets])
    played = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=4)
    strums = draw(st.lists(st.one_of(st.just(()), copied, played), min_size=1, max_size=8))
    cfg = DecoderConfig(
        timing_sigma=draw(st.sampled_from([0.03, 0.1, 0.5])),
        pattern_change_penalty=draw(st.sampled_from([0.0, 0.5, 2.0])),
        timesig_change_penalty=draw(st.sampled_from([0.0, 1.0, 6.0])),
    )
    return measures_from(*(sorted(set(s)) for s in strums)), vocab, cfg


eighth_half = st.lists(st.integers(0, 7), min_size=1, max_size=3, unique=True).map(
    lambda xs: tuple(sorted(x / 8 for x in xs))
)


@st.composite
def eighth_grid_cases(draw):
    """(measures, vocab, cfg) with every onset and strum on a 1/8 grid and
    no jitter, so that exact ties are the usual case. Every distance is a
    multiple of 1/8, and sigma and the change penalties are powers of two
    or 0, so each cost is exact and costs that are equal as numbers are
    equal as floats. The patterns are made of a few shared halves, most in
    more than one signature: a measure that copies a half costs 0 for every
    pattern in every signature that plays it there, silent measures tie
    among the empty patterns, a 2-measure pattern ties the pair of
    1-measure patterns made of its halves, and change penalties of 0 tie
    the change counts too."""
    n_sigs = draw(st.integers(2, 3))
    pool = st.sampled_from(draw(st.lists(eighth_half, min_size=1, max_size=3, unique=True)))
    shapes = draw(st.lists(st.lists(pool, min_size=1, max_size=2).map(tuple),
                           min_size=1, max_size=4, unique=True))
    # each shape in every signature, or in some
    sigs = st.just(set(range(n_sigs))) | st.sets(st.integers(0, n_sigs - 1), min_size=1)
    patterns = []
    for halves in shapes:
        for sig in sorted(draw(sigs)):
            patterns.append(make_pattern(f"P{len(patterns)}", SIGNATURES[sig], *halves))
    vocab = Vocabulary(patterns)
    strums = draw(st.lists(st.one_of(st.just(()), pool, eighth_half), min_size=1, max_size=8))
    cfg = DecoderConfig(
        timing_sigma=draw(st.sampled_from([0.125, 0.25, 0.5])),
        pattern_change_penalty=draw(st.sampled_from([0.0, 0.5, 1.0])),
        timesig_change_penalty=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )
    return measures_from(*strums), vocab, cfg


def assert_same_as_lexsort(measures, vocab, cfg):
    try:
        want = lexsort_decode(measures, vocab, cfg)
    except ValueError:
        with pytest.raises(ValueError, match="no feasible pattern assignment"):
            decode(measures, vocab, cfg)
        return
    got = decode(measures, vocab, cfg)
    assert got.to_dict() == want.to_dict()
    assert got.total_cost.hex() == want.total_cost.hex()


# 2 + 2 and nextafter(2, 3) + 2 both round to 4.0, so a cheaper champion can
# tie a dearer one once the change penalty is added; 0.09 + (0.5 + 1.0) and
# (0.09 + 0.5) + 1.0 differ in the last bit
NEXT_2 = float(np.nextafter(2.0, 3.0))
ENTRY_COSTS = [0.0, 0.09, 0.5, 1.0, 2.0, NEXT_2, 4.0, np.inf]


@st.composite
def entry_rows(draw):
    """(prev_cost, prev_sw, sig_codes, c1, c2): one row of end costs over up
    to 12 states in up to 4 signature groups, numbered in order of first
    appearance as decode numbers them."""
    n = draw(st.integers(1, 12))
    raw = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    codes = {}
    sig_codes = np.array([codes.setdefault(g, len(codes)) for g in raw], dtype=np.int64)
    prev_cost = np.array(draw(st.lists(st.sampled_from(ENTRY_COSTS), min_size=n, max_size=n)))
    prev_sw = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64)
    c1 = draw(st.sampled_from([0.0, 0.5, 2.0, math.inf]))
    c2 = draw(st.sampled_from([0.0, 1.0, 6.0, math.inf]))
    return prev_cost, prev_sw, sig_codes, c1, c2


class TestRelaxation:
    @settings(deadline=None, max_examples=500)
    @given(entry_rows())
    # state 1 switches to the champion of the second-best group, which ties
    # its own group's champion on cost after rounding and has fewer switches
    @example(
        (
            np.array([2.0, np.inf, NEXT_2, 4.0]),
            np.array([2, 0, 0, 0]),
            np.array([0, 0, 1, 2]),
            2.0,
            0.0,
        )
    )
    # a champion's switch from itself is its group's key: at c1 = 0 it ties
    # the repeat on cost (state 1 takes it, the champion keeps its repeat),
    # in a single-member group, and from an infinite-cost champion
    @example((np.array([1.0, 1.0, 0.5]), np.array([0, 2, 0]), np.array([0, 0, 1]), 0.0, 6.0))
    @example((np.array([0.0, 0.5, 1.0]), np.array([0, 0, 0]), np.array([0, 1, 1]), 2.0, 1.0))
    @example(
        (np.array([np.inf, np.inf, np.inf]), np.array([3, 0, 0]), np.array([0, 0, 1]), 0.5, 1.0)
    )
    # a switch that ties a repeat on cost and switch count loses to it
    @example((np.array([1.0, 1.0]), np.array([0, 1]), np.array([0, 0]), 0.0, 0.0))
    # the champion of three equal costs is the lowest index of fewest switches
    @example((np.array([0.0, 0.0, 0.0, 4.0]), np.array([1, 0, 0, 0]), np.array([0, 0, 0, 1]),
              0.5, 1.0))
    # 0.09 + (0.5 + 1.0) and (0.09 + 0.5) + 1.0 differ in the last bit
    @example((np.array([0.09, 4.0]), np.array([0, 0]), np.array([0, 1]), 0.5, 1.0))
    def test_entry_matches_lexsort_relaxation(self, row):
        # decode's step on keys cost + 1j * switches, given each group's
        # champion as the lexsort reference ranks it. Switch counts and
        # predecessors of infeasible (infinite-cost) states never reach a
        # transcription, and the reference's come from an invalid
        # runner-up, so only feasible states must agree on them
        prev_cost, prev_sw, sig_codes, c1, c2 = row
        pattern_index = np.arange(len(prev_cost), dtype=np.int64)
        champions = [
            int(_group_top2(prev_cost, prev_sw, np.flatnonzero(sig_codes == g))[0])
            for g in range(sig_codes.max() + 1)
        ]
        switched = np.zeros(len(prev_cost), dtype=bool)
        entry, sources = _enter(prev_cost + 1j * prev_sw, champions, sig_codes, c1, c2, switched)
        predecessor = np.where(switched, np.array(sources, dtype=np.int64)[sig_codes],
                               pattern_index)
        want_cost, want_sw, want_prev = _relax_entry(
            prev_cost, prev_sw, sig_codes, pattern_index, c1, c2)
        assert entry.dtype == np.complex128
        assert entry.real.tobytes() == want_cost.tobytes()
        feasible = np.isfinite(want_cost)
        assert entry.imag[feasible].tobytes() == want_sw[feasible].astype(float).tobytes()
        assert predecessor.dtype == want_prev.dtype
        assert predecessor[feasible].tobytes() == want_prev[feasible].tobytes()

    @settings(deadline=None, max_examples=300)
    @given(relaxation_cases())
    def test_bit_exact_against_lexsort_reference(self, case):
        assert_same_as_lexsort(*case)

    @settings(deadline=None, max_examples=300)
    @given(eighth_grid_cases())
    def test_bit_exact_against_lexsort_reference_on_ties(self, case):
        # lexsort_decode compares partial sums as decode does, so it must
        # settle every exact tie the same way
        assert_same_as_lexsort(*case)

    @settings(deadline=None, max_examples=300)
    @given(case=relaxation_cases() | eighth_grid_cases(),
           c1=st.sampled_from([0.0, 2.0, math.inf]), c2=st.sampled_from([0.0, 6.0, math.inf]))
    def test_bit_exact_against_lexsort_on_the_penalty_grid(self, case, c1, c2):
        # the paper's change-penalty grid: an infinite penalty forbids that
        # change, and a switch key's cost is then cost + inf
        measures, vocab, cfg = case
        assert_same_as_lexsort(measures, vocab, DecoderConfig(cfg.timing_sigma, c1, c2))

    @pytest.mark.parametrize(
        "cfg",
        [DecoderConfig(), DecoderConfig(pattern_change_penalty=0.0, timesig_change_penalty=0.0)],
        ids=["default", "free_changes"],
    )
    def test_bit_exact_at_c10_size(self, cfg):
        measures, vocab = c10_instance()
        assert_same_as_lexsort(measures, vocab, cfg)


class TestComplexKeyOrder:
    """decode keys each state by cost + 1j * switches and relies on numpy
    ordering complex128 by the real part first, then the imaginary part,
    in np.less, np.minimum and argmin, with argmin taking the first of
    equal keys."""

    # each pair ordered a < b: by real part, by imaginary part at an equal
    # real part, and at an infinite real part
    ORDERED = [(1.0 + 5j, 2.0 + 0j), (2.0 + 1j, 2.0 + 2j), (0.5 + 9j, complex(math.inf, 0)),
               (complex(math.inf, 1), complex(math.inf, 2)), (NEXT_2 + 0j, complex(NEXT_2, 1))]

    @pytest.mark.parametrize("a, b", ORDERED)
    def test_less_and_minimum(self, a, b):
        left, right = np.array([a, b]), np.array([b, a])
        assert np.less(left, right).tolist() == [True, False]
        assert np.minimum(left, right).tobytes() == np.array([a, a]).tobytes()
        assert not np.less(left, left).any()

    @pytest.mark.parametrize("a, b", ORDERED)
    def test_argmin_takes_the_first_least_key(self, a, b):
        assert np.array([b, a, b, a]).argmin() == 1
        assert np.array([a, a, b]).argmin() == 0
        assert np.array([b, b]).argmin() == 0

    def test_keys_from_infinite_costs(self):
        keys = np.array([math.inf, math.inf, 2.0]) + 1j * np.array([3, 1, 0])
        assert keys.real.tolist() == [math.inf, math.inf, 2.0]
        assert keys.imag.tolist() == [3.0, 1.0, 0.0]
        assert not np.isnan(keys + complex(math.inf, 1)).any()


class TestBlocks:
    """decode makes the emission tables a block of measures at a time and
    keeps one bit per backpointer; neither may change a bit."""

    @settings(deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=relaxation_cases() | eighth_grid_cases(), per_block=st.integers(1, 3))
    # TWO's instances at measures 1-2 and 3-4 cross the edges of 2-measure
    # blocks, and the switches into and out of them are read back from bits
    @example(
        case=(
            measures_from([0.0], [0.0, 0.5], [0.25], [0.0, 0.5], [0.25], [0.5]),
            make_vocab(("A", "4/4", [0.0]), ("B", "4/4", [0.5]),
                       ("TWO", "4/4", [0.0, 0.5], [0.25])),
            DecoderConfig(),
        ),
        per_block=2,
    )
    def test_small_blocks_match_lexsort(self, monkeypatch, case, per_block):
        measures, vocab, cfg = case
        monkeypatch.setattr(decoder_module, "_BLOCK_CELLS", per_block * len(vocab))
        assert_same_as_lexsort(measures, vocab, cfg)

    def test_ten_thousand_measures_in_bounded_memory(self):
        # the c10 song tiled to 10^4 measures against its 1002 patterns:
        # whole-song tables and int32 backpointers took 192.7 MiB here
        measures, vocab = c10_instance()
        song = [MeasureStrums(m, measures[m % len(measures)].positions) for m in range(10_000)]
        tracemalloc.start()
        try:
            result = decode(song, vocab, DecoderConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        payload = json.dumps(result.to_dict(), sort_keys=True).encode()
        # the digest decode gave when it made whole-song tables
        assert hashlib.sha256(payload).hexdigest() == (
            "94d204c429131f53224c580755dc7b25a49cf052e40bc2f550319c0029f78224")


class TestDecodeProperties:
    def test_determinism(self):
        rng = np.random.default_rng(7)
        measures, vocab, cfg = random_instance(rng)
        first = decode(measures, vocab, cfg)
        second = decode(measures, vocab, cfg)
        assert first == second

    def test_switch_monotonicity(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            measures, vocab, _ = random_instance(rng, max_measures=7)
            counts = []
            for c1 in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
                cfg = DecoderConfig(pattern_change_penalty=c1, timesig_change_penalty=1.0)
                result = decode(measures, vocab, cfg)
                ids = [e.pattern_id for e in result.entries if e.phase == 0]
                counts.append(sum(1 for a, b in zip(ids, ids[1:]) if a != b))
            assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_cost_decomposition(self, basic_vocab):
        rng = np.random.default_rng(5)
        measures, vocab, cfg = random_instance(rng, max_measures=8)
        result = decode(measures, vocab, cfg)
        total = 0.0
        previous = None
        i = 0
        while i < len(result.entries):
            pattern = vocab.by_id(result.entries[i].pattern_id)
            span = pattern.measures
            for phase in range(span):
                observed = list(measures[i + phase].positions)
                total += half_cost(observed, list(pattern.onsets[phase]), cfg)
            if previous is not None:
                total += transition(previous, pattern, cfg)
            previous = pattern
            i += span
        assert total == pytest.approx(result.total_cost, abs=1e-9)

    def test_noiseless_round_trip(self, basic_vocab):
        bars = BarlineTrack(tuple(2.0 * i for i in range(6)))
        nominal = []
        layout = ["QUARTERS", "QUARTERS", "TWOBAR", "HALVES"]
        measure = 0
        for pid in layout:
            pattern = basic_vocab.by_id(pid)
            for phase in range(pattern.measures):
                start = bars.times_sec[measure]
                nominal.extend(start + 2.0 * p for p in pattern.onsets[phase])
                measure += 1
        from strumscribe import StrumSequence

        strums = StrumSequence(tuple(nominal))
        measures, _ = bin_strums(strums, bars)
        result = decode(measures, basic_vocab, DecoderConfig())
        assert [e.pattern_id for e in result.entries] == [
            "QUARTERS", "QUARTERS", "TWOBAR", "TWOBAR", "HALVES"]
        assert reconstruct_strums(result, bars, basic_vocab).times_sec == pytest.approx(
            strums.times_sec
        )


class TestReconstructStrums:
    def test_single_measure(self):
        vocab = make_vocab(("A", "4/4", [0.0, 0.5]))
        t = Transcription(
            (TranscriptionEntry(0, "A", 0, TimeSignature(4, 4)),), total_cost=0.0
        )
        assert reconstruct_strums(t, BarlineTrack((1.0, 3.0)), vocab).times_sec == (1.0, 2.0)

    def test_empty_measures_emit_nothing(self):
        vocab = make_vocab(("A", "4/4", [0.0, 0.5]))
        t = Transcription(
            (TranscriptionEntry(0, "EMPTY_4_4", 0, TimeSignature(4, 4)),), total_cost=0.0
        )
        assert reconstruct_strums(t, BarlineTrack((0.0, 2.0)), vocab).times_sec == ()

    def test_two_measure_pattern(self):
        vocab = make_vocab(("TWO", "4/4", [0.0], [0.5]))
        t = Transcription(
            (
                TranscriptionEntry(0, "TWO", 0, TimeSignature(4, 4)),
                TranscriptionEntry(1, "TWO", 1, TimeSignature(4, 4)),
            ),
            total_cost=0.0,
        )
        assert reconstruct_strums(t, BarlineTrack((0.0, 2.0, 4.0)), vocab).times_sec == (0.0, 3.0)

    def test_measure_count_mismatch(self):
        vocab = make_vocab(("A", "4/4", [0.0]))
        t = Transcription(
            (TranscriptionEntry(0, "A", 0, TimeSignature(4, 4)),), total_cost=0.0
        )
        with pytest.raises(ValueError):
            reconstruct_strums(t, BarlineTrack((0.0, 2.0, 4.0)), vocab)


class _Int(int):
    pass


class _Str(str):
    pass


# values a transcription field may be mutated to: JSON's other types, bools,
# time signatures good and bad, and subclasses of the right types
FIELD_VALUES = st.sampled_from(
    [True, False, None, 0, 1, 2, -1, 1.0, "1", "A", [], {}, _Int(0), _Int(1), _Str("A"),
     _Str("4/4"), "4/4", "3/4", " 6/8", "4/3", "0/4", "x", "4/4/4", "-3/4", "3/4.0", ""]
) | st.floats() | st.text(max_size=3)
ENTRY_KEYS = ["index", "pattern_id", "phase", "time_signature"]


@st.composite
def transcription_payloads(draw):
    """A valid transcription's JSON payload, then a few mutations: a field
    deleted, added or set to another value, a record or the measures list
    replaced, or total_cost changed."""
    records = []
    while len(records) < draw(st.integers(1, 6)):
        pattern, signature = draw(st.sampled_from([("A", "4/4"), ("B", "3/4"), ("C", "6/8")]))
        phases = (0, 1) if draw(st.booleans()) else (0,)
        records += [{"index": len(records) + k, "pattern_id": pattern, "phase": phase,
                     "time_signature": signature} for k, phase in enumerate(phases)]
    payload = {"total_cost": draw(st.floats(0, 100)), "measures": records}
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["delete", "set", "set", "set", "add", "record", "measures",
                                     "cost"]))
        i = draw(st.integers(0, len(records) - 1))
        if not isinstance(records[i], dict) and kind in ("delete", "set", "add"):
            continue
        if kind == "delete":
            records[i].pop(draw(st.sampled_from(ENTRY_KEYS)), None)
        elif kind == "set":
            records[i][draw(st.sampled_from(ENTRY_KEYS))] = draw(FIELD_VALUES)
        elif kind == "add":
            records[i]["extra"] = draw(FIELD_VALUES)
        elif kind == "record":
            records[i] = draw(FIELD_VALUES)
        elif kind == "measures":
            payload["measures"] = draw(FIELD_VALUES)
        else:
            payload["total_cost"] = draw(FIELD_VALUES | st.just(10**400))
    return payload


@st.composite
def transcriptions(draw):
    """Any valid transcription: pattern ids drawn from a few arbitrary
    strings so that they repeat, 1- and 2-measure instances, any signature
    and any total cost."""
    ids = draw(st.lists(st.text(), min_size=1, max_size=4))
    signatures = st.builds(TimeSignature, st.integers(1, 10**20), st.sampled_from([1, 2, 4, 8, 16]))
    instances = draw(st.lists(st.tuples(st.sampled_from(ids), st.integers(1, 2), signatures),
                              min_size=1, max_size=12))
    entries = []
    for pattern_id, span, signature in instances:
        for phase in range(span):
            entries.append(TranscriptionEntry(len(entries), pattern_id, phase, signature))
    return Transcription(tuple(entries), draw(st.floats() | st.integers()))


class TestTranscriptionType:
    def test_phase_one_must_follow_phase_zero(self):
        with pytest.raises(ValueError):
            Transcription(
                (TranscriptionEntry(0, "A", 1, TimeSignature(4, 4)),), total_cost=0.0
            )
        with pytest.raises(ValueError):
            Transcription(
                (
                    TranscriptionEntry(0, "A", 0, TimeSignature(4, 4)),
                    TranscriptionEntry(1, "B", 1, TimeSignature(4, 4)),
                ),
                total_cost=0.0,
            )

    def test_measure_indices_must_be_dense(self):
        with pytest.raises(ValueError):
            Transcription(
                (TranscriptionEntry(3, "A", 0, TimeSignature(4, 4)),), total_cost=0.0
            )

    @settings(max_examples=400, deadline=None)
    @given(transcription_payloads())
    @example(payload={"total_cost": 0.0, "measures": [
        {"index": True, "pattern_id": "A", "phase": 0, "time_signature": "4/4"}]})
    @example(payload={"total_cost": 0.0, "measures": [
        {"index": 0, "pattern_id": "A", "phase": 0, "time_signature": "4/4"},
        {"index": 1, "pattern_id": "A", "phase": 0, "time_signature": ""}]})
    @example(payload={"total_cost": 0.0, "measures": [
        {"index": _Int(0), "pattern_id": _Str("A"), "phase": 0, "time_signature": "3/4"}]})
    def test_reader_matches_per_record_reader(self, payload):
        def outcome(read):
            try:
                return read(payload)
            except Exception as exc:  # the reference's errors are the contract
                return type(exc), str(exc)

        assert outcome(Transcription.from_dict) == outcome(per_record_transcription_from_dict)

    @settings(max_examples=300, deadline=None)
    @given(transcriptions())
    @example(transcription=Transcription(
        (TranscriptionEntry(0, 'é"\\\n\x00\ud800 ', 0, TimeSignature(6, 8)),), math.inf))
    @example(transcription=Transcription(
        (TranscriptionEntry(0, "A", 0, TimeSignature(4, 4)),), -math.inf))
    @example(transcription=Transcription(
        (TranscriptionEntry(0, "A", 0, TimeSignature(4, 4)),), math.nan))
    @example(transcription=Transcription(
        (TranscriptionEntry(0, "A", 0, TimeSignature(4, 4)),), 1.7976931348623157e308))
    def test_writer_matches_indented_json_dump(self, transcription):
        want = io.StringIO()
        indented_save_transcription(transcription, want)
        assert save_transcription(transcription) == want.getvalue()

    def test_json_round_trip(self, basic_vocab):
        rng = np.random.default_rng(11)
        measures, vocab, cfg = random_instance(rng)
        result = decode(measures, vocab, cfg)
        assert load_transcription(save_transcription(result)) == result
