import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from strumscribe import (
    DecoderConfig,
    MeasureStrums,
    RhythmicPattern,
    SynthSpec,
    TimeSignature,
    Vocabulary,
    bin_strums,
    decode,
    generate_song,
)
from strumscribe import likelihood
from strumscribe.likelihood import (
    _SLAB_ELEMENTS,
    _half_setup,
    _onset_plan,
    _plan_sums,
    _row_sums,
    contribution_tables,
)

from conftest import make_pattern
from oracles import dense_contribution_tables, half_cost
from test_acceptance import c10_instance

positions = st.lists(st.integers(0, 63), min_size=1, max_size=8).map(
    lambda xs: sorted({x / 64 for x in xs})
)

anywhere = st.floats(0.0, 1.0, exclude_max=True)
onset_kinds = [st.integers(0, n - 1).map(lambda k, n=n: k / n) for n in (16, 12)] + [anywhere]
# one half: up to 16 onsets on the 16th grid, the triplet grid, anywhere, or mixed
half_onsets = (
    st.sampled_from(onset_kinds + [st.one_of(onset_kinds)])
    .flatmap(lambda kind: st.lists(kind, max_size=16))
    .map(lambda xs: tuple(sorted(set(xs))))
)


@st.composite
def emission_cases(draw):
    """(measures, vocab, cfg): 1- and 2-measure patterns, silent halves and
    measures, and up to 12 strums per measure placed on onsets, at midpoints
    between neighbouring onsets, or anywhere."""
    shapes = draw(
        st.lists(
            st.lists(half_onsets, min_size=1, max_size=2).map(tuple).filter(any),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    vocab = Vocabulary.build(make_pattern(f"P{i}", "4/4", *shape) for i, shape in enumerate(shapes))
    alphabet = sorted({u for shape in shapes for half in shape for u in half})
    midpoints = [(a + b) / 2 for a, b in zip(alphabet, alphabet[1:])]
    strum = st.one_of(
        [anywhere, st.sampled_from(alphabet)] + ([st.sampled_from(midpoints)] if midpoints else [])
    )
    strums = draw(st.lists(st.lists(strum, max_size=12), min_size=1, max_size=4))
    measures = [MeasureStrums(m, tuple(sorted(s))) for m, s in enumerate(strums)]
    return measures, vocab, DecoderConfig(timing_sigma=draw(st.sampled_from([0.01, 0.03, 0.5])))


def assert_bit_exact(measures, vocab, cfg):
    first, second = contribution_tables(measures, vocab, cfg)
    want_first, want_second = dense_contribution_tables(measures, vocab, cfg)
    assert first.shape == want_first.shape
    assert first.tobytes() == want_first.tobytes()
    # the library keeps the second table's 2-measure columns, and the dense
    # table's other columns are all np.inf: nothing the decoder reads is lost
    two = np.array([p.measures == 2 for p in vocab.patterns], dtype=bool)
    want_two = np.ascontiguousarray(want_second[:, two])
    assert second.shape == want_two.shape
    assert second.tobytes() == want_two.tobytes()
    assert np.isinf(want_second[:, ~two]).all()


SIXTEENTHS = [k / 16 for k in range(16)]
# 12 strums: on the first six 16ths and at the midpoints after them
ON_AND_BETWEEN = tuple(sorted(SIXTEENTHS[:6] + [k / 16 + 1 / 32 for k in range(6)]))
# 7, 8 and 9 strums, off the 16th grid: one short of a block of 8, one
# block, and one block plus a term
SEVEN = (0.0, 0.1, 0.26, 0.4, 0.52, 0.7, 0.91)
EIGHT = tuple(k / 8 + 0.01 for k in range(8))
EIGHT_LATE = tuple(k / 8 + 0.05 for k in range(8))
NINE = tuple(k / 9 for k in range(9))
# 150 onsets or strums, more than one pairwise block of 128: the sums split
# in two halves
MANY = tuple(k / 150 for k in range(150))


# 2 * sigma^2 == 2 exactly, so twice a cell is the raw two-way mismatch
SIGMA_ONE = DecoderConfig(timing_sigma=1.0)


def cells(observed, *halves, cfg=SIGMA_ONE):
    """Table cells of one pattern whose measures hold `halves`, each half
    against its own measure of `observed`: [first[0, p]] or
    [first[0, p], second[1, p]]."""
    vocab = Vocabulary.build([make_pattern("P", "4/4", *halves)])
    measures = [MeasureStrums(m, tuple(obs)) for m, obs in enumerate(observed)]
    first, second = contribution_tables(measures, vocab, cfg)
    return [first[0, 0]] + ([second[1, 0]] if len(halves) == 2 else [])


def cell(observed, onsets, cfg=SIGMA_ONE):
    return cells([observed], onsets, cfg=cfg)[0]


def mismatch(observed, onsets):
    return 2 * cell(observed, onsets)


def table_cell(vocab, measure, pattern_id, cfg):
    first, _ = contribution_tables([measure], vocab, cfg)
    return first[0, vocab.patterns.index(vocab.by_id(pattern_id))]


class TestRawMismatch:
    def test_missing_onset(self):
        # one pattern onset at 0.25 has nearest observed strum 0.25 away
        assert mismatch([0.0, 0.5], [0.0, 0.25, 0.5]) == pytest.approx(0.0625)

    def test_exact_match_is_zero(self):
        assert mismatch([0.0, 0.25, 0.5, 0.75], [0.0, 0.25, 0.5, 0.75]) == 0.0

    def test_single_elements(self):
        assert mismatch([0.1], [0.0]) == pytest.approx(0.02)

    def test_both_empty(self):
        assert mismatch([], []) == 0.0

    def test_one_empty_rejected(self):
        assert np.isinf(mismatch([], [0.0]))

    @given(a=positions, b=positions)
    def test_matches_naive_oracle(self, a, b):
        assert cell(a, b) == pytest.approx(half_cost(a, b, SIGMA_ONE), abs=1e-12)

    @given(a=positions, b=positions)
    def test_symmetry(self, a, b):
        assert cell(a, b) == pytest.approx(half_cost(b, a, SIGMA_ONE), abs=1e-12)
        assert cell(a, b) == pytest.approx(cell(b, a), abs=1e-12)

    @given(a=positions, b=positions)
    def test_zero_iff_set_equal(self, a, b):
        value = cell(a, b)
        assert value == pytest.approx(half_cost(a, b, SIGMA_ONE), abs=1e-12)
        if set(a) == set(b):
            assert value == 0.0
        else:
            assert value > 0.0


class TestEmissionCost:
    def test_empty_pattern_on_empty_measure_is_zero(self, basic_vocab):
        cfg = DecoderConfig()
        assert table_cell(basic_vocab, MeasureStrums(0, ()), "EMPTY_4_4", cfg) == 0.0

    def test_empty_pattern_on_played_measure_forbidden(self, basic_vocab):
        cfg = DecoderConfig()
        assert np.isinf(table_cell(basic_vocab, MeasureStrums(0, (0.5,)), "EMPTY_4_4", cfg))

    def test_played_pattern_on_empty_measure_forbidden(self, basic_vocab):
        cfg = DecoderConfig()
        assert np.isinf(table_cell(basic_vocab, MeasureStrums(0, ()), "QUARTERS", cfg))

    def test_scaled_by_sigma(self):
        cfg = DecoderConfig(timing_sigma=0.5)
        cost = cell([0.0, 0.5], [0.0, 0.25, 0.5], cfg)
        assert cost == pytest.approx(0.0625 / (2 * 0.25))
        assert cost == pytest.approx(0.125)

    def test_two_measure_span(self, basic_vocab):
        two_bar = basic_vocab.by_id("TWOBAR")
        cfg = DecoderConfig(timing_sigma=1.0)
        observed = [(0.0, 0.5, 0.75), (0.0, 0.25, 0.5)]
        assert cells(observed, *two_bar.onsets, cfg=cfg) == [0.0, 0.0]

    def test_forbidden_if_any_half_mismatched(self, basic_vocab):
        two_bar = basic_vocab.by_id("TWOBAR")
        cfg = DecoderConfig()
        first, second = cells([(0.0,), ()], *two_bar.onsets, cfg=cfg)
        assert first == pytest.approx(half_cost([0.0], list(two_bar.onsets[0]), cfg))
        assert np.isinf(second)

    @given(positions, st.floats(min_value=0.5, max_value=4.0))
    def test_sigma_scale_law(self, obs, k):
        onsets = [0.0, 0.25, 0.5, 0.75]
        base = DecoderConfig(timing_sigma=0.05)
        scaled = DecoderConfig(timing_sigma=0.05 * k)
        a = cell(obs, onsets, base)
        b = cell(obs, onsets, scaled)
        assert a == pytest.approx(half_cost(obs, onsets, base), rel=1e-9)
        assert b == pytest.approx(half_cost(obs, onsets, scaled), rel=1e-9)
        assert b * k * k == pytest.approx(a, rel=1e-9)

    def test_no_per_pattern_prior(self):
        # same onsets, different id and signature: identical finite cost
        vocab = Vocabulary.build(
            [make_pattern("A", "4/4", [0.0, 0.5]), make_pattern("B", "3/4", [0.0, 0.5])]
        )
        cfg = DecoderConfig()
        measure = MeasureStrums(0, (0.1, 0.6))
        a = table_cell(vocab, measure, "A", cfg)
        assert a == table_cell(vocab, measure, "B", cfg)
        assert a == pytest.approx(half_cost([0.1, 0.6], [0.0, 0.5], cfg), abs=1e-12)


def decode_pair(vocab, prev_id, next_id, cfg):
    """Decode two measures played exactly as prev_id then next_id."""
    measures = [
        MeasureStrums(m, vocab.by_id(pid).onsets[0]) for m, pid in enumerate((prev_id, next_id))
    ]
    return decode(measures, vocab, cfg)


class TestTransitionCost:
    def test_same_pattern_free(self, basic_vocab):
        cfg = DecoderConfig()
        result = decode_pair(basic_vocab, "QUARTERS", "QUARTERS", cfg)
        assert [e.pattern_id for e in result.entries] == ["QUARTERS", "QUARTERS"]
        assert result.total_cost == 0.0

    def test_same_signature(self, basic_vocab):
        cfg = DecoderConfig(pattern_change_penalty=2.0, timesig_change_penalty=6.0)
        result = decode_pair(basic_vocab, "QUARTERS", "HALVES", cfg)
        assert [e.pattern_id for e in result.entries] == ["QUARTERS", "HALVES"]
        assert result.total_cost == 2.0

    def test_cross_signature(self, basic_vocab):
        cfg = DecoderConfig(pattern_change_penalty=2.0, timesig_change_penalty=6.0)
        result = decode_pair(basic_vocab, "QUARTERS", "WALTZ", cfg)
        assert [e.pattern_id for e in result.entries] == ["QUARTERS", "WALTZ"]
        assert result.total_cost == 8.0

    @given(st.data())
    def test_depends_only_on_id_and_signature_equality(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # penalties stay below 10 while onsets on distinct 1/16-grid pairs
        # mismatch by at least (1/16)^2 / (2 * 0.01^2) > 19, so the decode
        # always follows the played patterns
        cfg = DecoderConfig(
            timing_sigma=0.01,
            pattern_change_penalty=float(rng.uniform(0, 5)),
            timesig_change_penalty=float(rng.uniform(0, 5)),
        )
        sigs = ["4/4", "3/4"]
        grid_pairs = list(itertools.combinations(range(16), 2))
        picks = rng.choice(len(grid_pairs), size=4, replace=False)
        pats = [
            make_pattern(f"P{i}", sigs[int(rng.integers(2))], [x / 16 for x in grid_pairs[pick]])
            for i, pick in enumerate(picks)
        ]
        vocab = Vocabulary.build(pats)
        for a in pats:
            for b in pats:
                expected = (
                    0.0
                    if b.id == a.id
                    else cfg.pattern_change_penalty
                    + (cfg.timesig_change_penalty if a.time_signature != b.time_signature else 0.0)
                )
                result = decode_pair(vocab, a.id, b.id, cfg)
                assert [e.pattern_id for e in result.entries] == [a.id, b.id]
                assert result.total_cost == expected


class TestDecoderConfig:
    def test_defaults(self):
        cfg = DecoderConfig()
        assert cfg.timing_sigma == 0.03
        assert cfg.pattern_change_penalty == 2.0
        assert cfg.timesig_change_penalty == 6.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timing_sigma": 0.0},
            {"timing_sigma": -1.0},
            {"pattern_change_penalty": -0.1},
            {"timesig_change_penalty": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DecoderConfig(**kwargs)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("timing_sigma", np.nan),
            ("timing_sigma", np.inf),
            ("pattern_change_penalty", np.nan),
            ("timesig_change_penalty", np.nan),
        ],
    )
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            DecoderConfig(**{field: value})

    def test_infinite_change_penalties_accepted(self):
        cfg = DecoderConfig(pattern_change_penalty=np.inf, timesig_change_penalty=np.inf)
        assert cfg.pattern_change_penalty == cfg.timesig_change_penalty == np.inf


class TestContributionTables:
    @given(st.data())
    def test_matches_scalar_emission(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pats = [
            make_pattern("A", "4/4", [0.0, 0.5]),
            make_pattern("B", "3/4", sorted(rng.uniform(0, 1, size=3).tolist())),
            make_pattern("C", "4/4", [0.0, 0.25], [0.5]),
            make_pattern("D", "4/4", [], [0.25]),
        ]
        vocab = Vocabulary.build(pats)
        cfg = DecoderConfig(timing_sigma=float(rng.uniform(0.02, 0.4)))
        measures = []
        for m in range(4):
            count = int(rng.integers(0, 4))
            measures.append(
                MeasureStrums(m, tuple(sorted(rng.uniform(0, 1, size=count).tolist())))
            )
        tables = contribution_tables(measures, vocab, cfg)
        # the second table's columns are the 2-measure patterns, in order
        columns = (
            list(range(len(vocab))),
            [i for i, p in enumerate(vocab.patterns) if p.measures == 2],
        )
        for m, measure in enumerate(measures):
            for i, pattern in enumerate(vocab.patterns):
                # every half of every pattern, checked on its own
                for half, onsets in enumerate(pattern.onsets):
                    expected = half_cost(list(measure.positions), list(onsets), cfg)
                    got = tables[half][m, columns[half].index(i)]
                    if expected is None:
                        assert np.isinf(got)
                    else:
                        assert got == pytest.approx(expected, abs=1e-12)

    @given(emission_cases())
    # 2-measure patterns, silent halves, a silent measure, 16-onset rows
    @example(
        (
            [
                MeasureStrums(0, ON_AND_BETWEEN),
                MeasureStrums(1, ()),
                MeasureStrums(2, (0.0, 1 / 3, 0.5, 0.5, 2 / 3, 0.99)),
            ],
            Vocabulary.build(
                [
                    make_pattern("FULL", "4/4", SIXTEENTHS),
                    make_pattern("TWO", "4/4", [0.0, 0.5], []),
                    make_pattern("LATE", "3/4", [], [0.0, 1 / 3, 2 / 3]),
                ]
            ),
            DecoderConfig(),
        )
    )
    # 7, 8, 9 and 12 strums: the strum side sums in sequence, in one block
    # of 8 lanes, and in lanes plus a sequential rest
    @example(
        (
            [MeasureStrums(m, s) for m, s in enumerate([SEVEN, EIGHT, NINE, ON_AND_BETWEEN])],
            Vocabulary.build(
                [
                    make_pattern("QUARTERS", "4/4", [0.0, 0.25, 0.5, 0.75]),
                    make_pattern("EIGHTHS", "4/4", [k / 8 for k in range(8)]),
                    make_pattern("ODD", "3/4", [0.1, 0.35], [1 / 3]),
                ]
            ),
            DecoderConfig(timing_sigma=0.01),
        )
    )
    # a 16-onset second half: the onset side sums two blocks of 8
    @example(
        (
            [MeasureStrums(0, SEVEN), MeasureStrums(1, NINE), MeasureStrums(2, (0.3,))],
            Vocabulary.build(
                [
                    make_pattern("LONG", "4/4", [0.0, 0.5], SIXTEENTHS),
                    make_pattern("SHORT", "4/4", [0.25], [0.0, 0.75]),
                ]
            ),
            DecoderConfig(),
        )
    )
    # equal strum counts in measures apart, silent measures between them
    @example(
        (
            [
                MeasureStrums(m, s)
                for m, s in enumerate([EIGHT, (), (0.0, 0.5), (), EIGHT_LATE, (0.2, 0.7), ()])
            ],
            Vocabulary.build(
                [
                    make_pattern("HALVES", "4/4", [0.0, 0.5]),
                    make_pattern("TWO", "4/4", [0.0, 0.25, 0.5], [0.5]),
                    make_pattern("REST", "4/4", [], [0.0, 0.5]),
                ]
            ),
            DecoderConfig(),
        )
    )
    # a first half of 150 onsets and a measure of 150 strums: both sides of
    # the sum split, and the short patterns' padding fills whole subtrees
    @example(
        (
            [MeasureStrums(0, MANY), MeasureStrums(1, NINE), MeasureStrums(2, (0.5,))],
            Vocabulary.build(
                [
                    make_pattern("DENSE", "4/4", MANY),
                    make_pattern("SIXTEENTHS", "4/4", SIXTEENTHS, [0.0]),
                    make_pattern("ONE", "3/4", [1 / 3]),
                ]
            ),
            DecoderConfig(),
        )
    )
    # no pattern plays in either half: a played measure costs every column +inf
    @example(
        (
            [MeasureStrums(0, ()), MeasureStrums(1, (0.5,)), MeasureStrums(2, ())],
            Vocabulary.build([make_pattern("R", "4/4", []), make_pattern("T", "3/4", [], [])]),
            DecoderConfig(),
        )
    )
    def test_bit_exact_against_dense(self, case):
        assert_bit_exact(*case)

    def test_bit_exact_across_slabs(self):
        # more patterns than one slab holds for a single measure: each slab
        # is one measure, and the 5-strum group spans three slabs
        rng = np.random.default_rng(3)
        # distinct nonempty subsets of the 16th grid, as bit masks
        masks = rng.choice(np.arange(1, 1 << 16), size=_SLAB_ELEMENTS + 5, replace=False)
        vocab = Vocabulary.build(
            make_pattern(f"P{i}", "4/4", [k / 16 for k in range(16) if mask >> k & 1])
            for i, mask in enumerate(masks)
        )
        counts = [5, 3, 0, 5, 3, 5]
        measures = [
            MeasureStrums(m, tuple(sorted(rng.uniform(0, 1, size=count).tolist())))
            for m, count in enumerate(counts)
        ]
        assert_bit_exact(measures, vocab, DecoderConfig())

    def test_bit_exact_at_c10_size(self):
        # the c10 vocabulary recipe at seed 0: 998 random 16th-grid patterns
        # in 4/4 or 3/4 plus two 2-measure ones, and 300 measures played from it
        rng = np.random.default_rng(0)
        signatures = [TimeSignature(4, 4), TimeSignature(3, 4)]
        patterns, seen = [], set()
        while len(patterns) < 998:
            size = int(rng.integers(1, 9))
            grid = tuple(sorted(rng.choice(16, size=size, replace=False) / 16))
            sig = signatures[int(rng.integers(2))]
            if (sig, grid) not in seen:
                seen.add((sig, grid))
                patterns.append(RhythmicPattern(f"P{len(patterns)}", sig, (grid,)))
        patterns.append(RhythmicPattern("T1", signatures[0], ((0.0, 0.5), (0.25, 0.75))))
        patterns.append(RhythmicPattern("T2", signatures[1], ((0.0,), (0.5,))))
        vocab = Vocabulary.build(patterns)
        song = generate_song(
            SynthSpec(seed=1, vocab=vocab, measures=300, sigma_norm=0.02, switch_prob=0.2,
                      miss_rate=0.02, spurious_rate=0.02)
        )
        measures, _ = bin_strums(song.observed, song.barlines)
        assert_bit_exact(measures, vocab, DecoderConfig())

    def test_setup_dropped_with_its_vocabulary(self):
        # the lookups are kept by the vocabulary's id, which a later
        # vocabulary may take once this one is collected
        vocab = Vocabulary.build([make_pattern("A", "4/4", [0.0, 0.5])])
        contribution_tables([MeasureStrums(0, (0.25,))], vocab, DecoderConfig())
        key = id(vocab)
        assert key in likelihood._SETUPS
        del vocab
        gc.collect()
        assert key not in likelihood._SETUPS

    def test_peak_memory_bounded(self):
        # slabs and their term columns are made on demand, so at c10 size
        # the peak stays within 2 MB of the two output tables
        measures, vocab = c10_instance()
        tracemalloc.start()
        try:
            tables = contribution_tables(measures, vocab, DecoderConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sum(table.nbytes for table in tables) + 2 * 2**20


class TestRowSums:
    def test_matches_numpy_sum(self):
        # squares spanning 1e-8 to 1e8, so that any other grouping of a
        # row's terms shows in its last bits
        rng = np.random.default_rng(0)
        for n in [*range(1, 301), 511, 512, 1031]:
            x = np.square(10.0 ** rng.uniform(-4, 4, size=(7, n)))
            got = _row_sums(n, lambda j: x[:, j].copy())
            assert got.tobytes() == np.sum(x, axis=-1).tobytes(), n


class TestOnsetPlan:
    def test_matches_numpy_sum(self):
        # per-slot values spanning 1e-8 to 1e8, so that any other grouping of
        # a row's terms shows in its last bits, and a last column of zeros at
        # the padding index. Each pattern pads its slots from a random rank
        # on, and the alphabets are small, so that partial sums are shared
        rng = np.random.default_rng(0)
        for n in [*range(1, 301), 511, 512, 1031]:
            pad = int(rng.integers(1, 6))
            leaves = np.square(10.0 ** rng.uniform(-4, 4, size=(5, pad + 1)))
            leaves[:, pad] = 0.0
            slots = rng.integers(0, pad + 1, size=(n, 12))
            slots[np.arange(n)[:, None] >= rng.integers(0, n + 1, size=12)] = pad
            got = _plan_sums(_onset_plan(slots), leaves)
            # each pattern's terms as a C-contiguous (rows x n) array, whose
            # rows numpy sums pairwise as the dense reference's rows
            want = [np.sum(np.take(leaves, column, axis=1), axis=-1) for column in slots.T]
            assert got.tobytes() == np.stack(want, axis=1).tobytes(), n


@st.composite
def bracket_cases(draw):
    """(halves, strums): one half of up to 6 patterns, at least one of them
    played, and strums anywhere, on the alphabet, at 0 and just below 1."""
    halves = draw(st.lists(half_onsets, min_size=1, max_size=6).filter(any))
    alphabet = sorted({u for half in halves for u in half})
    strum = st.one_of(anywhere, st.sampled_from(alphabet),
                      st.sampled_from([0.0, float(np.nextafter(1.0, 0.0))]))
    return halves, draw(st.lists(strum, min_size=1, max_size=20))


class TestSentinelBracket:
    @given(bracket_cases())
    @example(([(0.0, 0.5), (0.25,), ()], [0.0, 0.25, 0.5, 0.75, float(np.nextafter(1.0, 0.0))]))
    @example(([(float(np.nextafter(1.0, 0.0)),)], [0.0, float(np.nextafter(1.0, 0.0))]))
    def test_lookups_bracket_every_strum(self, case):
        # searchsorted's side "left" puts the nearest onset at or below a
        # strum at below[at] and the nearest at or above at above[at + 1], so
        # both differences are at least +0: their own absolute values
        halves, strums = case
        _, _, alphabet, _, below, above = _half_setup(halves)
        s = np.array(strums)[:, None]
        at = np.searchsorted(alphabet, s[:, 0])
        low, high = below[at], above[at + 1]
        assert (low <= s).all() and (s <= high).all()
        assert (s - low).tobytes() == np.abs(s - low).tobytes()
        assert (high - s).tobytes() == np.abs(s - high).tobytes()
