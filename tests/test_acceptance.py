"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Corpora are fixed-seed synthetic songs; oracles live in
tests/oracles.py and share no code with the implementations they check.
"""

import json
import time

import numpy as np
import pytest

from strumscribe import (
    BarlineTrack,
    DecoderConfig,
    MeasureStrums,
    PostprocConfig,
    StrumSequence,
    SynthSpec,
    TimeSignature,
    Transcription,
    TranscriptionEntry,
    Vocabulary,
    bin_strums,
    decode,
    detect_onsets,
    discontinuity_rate,
    generate_song,
    match_events,
    pattern_discontinuity,
    postprocess_barlines,
    reconstruct_strums,
    timesig_discontinuity,
)
from strumscribe.barlines import postprocess_barlines_with_cost
from strumscribe.vocabulary import RhythmicPattern

from oracles import brute_barline_cost, brute_max_matching, enumerate_decode
from test_onsets import pluck_train


def P(pattern_id, sig_text, *measures):
    return RhythmicPattern(
        pattern_id, TimeSignature.parse(sig_text), tuple(tuple(m) for m in measures)
    )


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


# ---------------------------------------------------------------------------
# corpora


# 4/4 vocabulary with two near-duplicate pairs 0.02 apart (40 ms at 2 s
# measures, inside the 50 ms matching tolerance): flips between partners are
# cheap in accuracy but visible in the discontinuity rate
VOCAB_44 = Vocabulary(
    [
        P("QUARTERS", "4/4", [0.0, 0.25, 0.5, 0.75]),
        P("QUARTERS_LATE", "4/4", [0.0, 0.25, 0.5, 0.77]),
        P("BACKBEAT", "4/4", [0.0, 0.375, 0.5, 0.875]),
        P("BACKBEAT_LATE", "4/4", [0.0, 0.395, 0.5, 0.875]),
        P("HALF", "4/4", [0.0, 0.5]),
        P("TWOBAR", "4/4", [0.0, 0.5, 0.75], [0.0, 0.25, 0.5]),
    ]
)

# mutually distinguishable, single signature: exact recovery is unambiguous
VOCAB_CLEAN = Vocabulary(
    [
        P("QUARTERS", "4/4", [0.0, 0.25, 0.5, 0.75]),
        P("HALF", "4/4", [0.0, 0.5]),
        P("OFFBEAT", "4/4", [0.0, 0.375, 0.625, 0.875]),
        P("TWOBAR", "4/4", [0.0, 0.5, 0.75], [0.0, 0.25, 0.5]),
    ]
)

# generation vocabularies for the mixed-signature corpus; the decoding
# vocabulary pairs every shape across both signatures so that emission ties
# leave the time signature entirely to the transition costs
GEN_44 = Vocabulary(
    [
        P("QUARTERS", "4/4", [0.0, 0.25, 0.5, 0.75]),
        P("BACKBEAT", "4/4", [0.0, 0.375, 0.5, 0.875]),
        P("HALF", "4/4", [0.0, 0.5]),
    ]
)
GEN_34 = Vocabulary(
    [
        P("WALTZ", "3/4", [0.0, 1 / 3, 2 / 3]),
        P("WALTZ_SPARSE", "3/4", [0.0, 2 / 3]),
    ]
)
VOCAB_MIXED = Vocabulary(
    [
        P("QUARTERS_34", "3/4", [0.0, 0.25, 0.5, 0.75]),
        P("QUARTERS", "4/4", [0.0, 0.25, 0.5, 0.75]),
        P("BACKBEAT", "4/4", [0.0, 0.375, 0.5, 0.875]),
        P("BACKBEAT_34", "3/4", [0.0, 0.375, 0.5, 0.875]),
        P("HALF_34", "3/4", [0.0, 0.5]),
        P("HALF", "4/4", [0.0, 0.5]),
        P("WALTZ_44", "4/4", [0.0, 1 / 3, 2 / 3]),
        P("WALTZ", "3/4", [0.0, 1 / 3, 2 / 3]),
        P("WALTZ_SPARSE", "3/4", [0.0, 2 / 3]),
        P("WALTZ_SPARSE_44", "4/4", [0.0, 2 / 3]),
        P("DOWN", "4/4", [0.0]),
        P("DOWN_34", "3/4", [0.0]),
    ]
)


@pytest.fixture(scope="module")
def noisy_corpus():
    """Criterion-3 corpus: 100 songs, 32 measures, 120 BPM 4/4, 2% jitter,
    2% misses, 2% spurious strums, seeded from 42."""
    rng = np.random.default_rng(42)
    return [
        generate_song(
            SynthSpec(
                seed=int(seed),
                vocab=VOCAB_44,
                measures=32,
                tempo_bpm=120.0,
                sigma_norm=0.02,
                switch_prob=0.1,
                miss_rate=0.02,
                spurious_rate=0.02,
            )
        )
        for seed in rng.integers(0, 2**31, size=100)
    ]


@pytest.fixture(scope="module")
def mixed_corpus():
    rng = np.random.default_rng(42)
    songs = []
    for i in range(100):
        songs.append(
            generate_song(
                SynthSpec(
                    seed=int(rng.integers(0, 2**31)),
                    vocab=GEN_44 if i % 2 == 0 else GEN_34,
                    measures=32,
                    tempo_bpm=120.0,
                    sigma_norm=0.02,
                    switch_prob=0.3,
                    miss_rate=0.02,
                    spurious_rate=0.02,
                )
            )
        )
    return songs


def decode_song(song, vocab, cfg):
    measures, _ = bin_strums(song.observed, song.barlines)
    return decode(measures, vocab, cfg)


def corpus_metrics(songs, vocab, cfg, tolerance=0.05):
    f1s, pdisc, tdisc = [], [], []
    for song in songs:
        t = decode_song(song, vocab, cfg)
        recon = reconstruct_strums(t, song.barlines, vocab)
        f1s.append(match_events(song.nominal.times_sec, recon.times_sec, tolerance).f1)
        pdisc.append(pattern_discontinuity(t))
        tdisc.append(timesig_discontinuity(t))
    return float(np.mean(f1s)), float(np.mean(pdisc)), float(np.mean(tdisc))


# ---------------------------------------------------------------------------
# criterion 1: Viterbi oracle equivalence


def random_small_instance(rng):
    signatures = ["4/4", "3/4"]
    n_sigs = int(rng.integers(1, 3))
    pool = signatures[:n_sigs]
    patterns = []
    for i in range(int(rng.integers(1, 3))):
        size = int(rng.integers(1, 5))
        grid = sorted(rng.choice(16, size=size, replace=False) / 16)
        patterns.append(P(f"P{i}", pool[int(rng.integers(n_sigs))], grid))
    halves = [sorted(rng.choice(16, size=2, replace=False) / 16) for _ in range(2)]
    patterns.append(P("TWO", pool[int(rng.integers(n_sigs))], *halves))
    vocab = Vocabulary(patterns)
    cfg = DecoderConfig(
        timing_sigma=float(rng.choice([0.03, 0.1, 0.5])),
        pattern_change_penalty=float(rng.choice([0.0, 0.5, 2.0])),
        timesig_change_penalty=float(rng.choice([0.0, 1.0, 6.0])),
    )
    measures = []
    for m in range(int(rng.integers(1, 9))):
        if rng.random() < 0.2:
            measures.append(MeasureStrums(m, ()))
            continue
        source = vocab.patterns[int(rng.integers(len(vocab)))]
        base = source.onsets[int(rng.integers(source.measures))]
        noisy = sorted(
            set(min(max(p + j, 0.0), 0.999) for p, j in zip(base, rng.normal(0, 0.02, len(base))))
        )
        measures.append(MeasureStrums(m, tuple(noisy)))
    return measures, vocab, cfg


def test_c01_viterbi_oracle_equivalence():
    rng = np.random.default_rng(20250808)
    started = time.perf_counter()
    n_instances = 220
    for _ in range(n_instances):
        measures, vocab, cfg = random_small_instance(rng)
        assert len(vocab) <= 5
        expected = enumerate_decode(measures, vocab, cfg)
        assert expected is not None
        result = decode(measures, vocab, cfg)
        assert result.total_cost == pytest.approx(expected[0], abs=1e-9)
        assert [(e.pattern_id, e.phase) for e in result.entries] == expected[1]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(1, f"{n_instances} instances match exhaustive search (cost within 1e-9, "
              f"sequences exact) in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 2: noiseless round trip


def test_c02_noiseless_round_trip():
    rng = np.random.default_rng(42)
    exact_sequences = 0
    for seed in rng.integers(0, 2**31, size=100):
        song = generate_song(
            SynthSpec(seed=int(seed), vocab=VOCAB_CLEAN, measures=24, switch_prob=0.25)
        )
        t = decode_song(song, VOCAB_CLEAN, DecoderConfig())
        truth = [(e.pattern_id, e.phase) for e in song.ground_truth.entries]
        assert [(e.pattern_id, e.phase) for e in t.entries] == truth
        exact_sequences += 1
        recon = reconstruct_strums(t, song.barlines, VOCAB_CLEAN)
        assert match_events(song.nominal.times_sec, recon.times_sec, 0.05).f1 == 1.0
    report(2, f"{exact_sequences}/100 clean songs: pattern accuracy 100%, "
              f"reconstructed-strum F1 100% at 50 ms")


# ---------------------------------------------------------------------------
# criterion 3: jitter denoising


def test_c03_jitter_denoising(noisy_corpus):
    f1, _, _ = corpus_metrics(noisy_corpus, VOCAB_44, DecoderConfig())
    assert f1 >= 0.98
    report(3, f"reconstructed-strum F1 {f1*100:.2f}% >= 98% on the noisy corpus (seed 42)")


# ---------------------------------------------------------------------------
# criterion 4: ablation directions


def test_c04_ablation_directions(noisy_corpus, mixed_corpus):
    # pattern-change penalty: discontinuity drops sharply, accuracy holds
    f1_off, pdisc_off, _ = corpus_metrics(
        noisy_corpus, VOCAB_44,
        DecoderConfig(pattern_change_penalty=0.0, timesig_change_penalty=0.0),
    )
    f1_on, pdisc_on, _ = corpus_metrics(
        noisy_corpus, VOCAB_44,
        DecoderConfig(pattern_change_penalty=2.0, timesig_change_penalty=0.0),
    )
    reduction = 1.0 - pdisc_on / pdisc_off
    assert reduction >= 0.40
    assert abs(f1_on - f1_off) < 0.005

    # time-signature penalty: discontinuity collapses on the mixed corpus
    _, _, tdisc_off = corpus_metrics(
        mixed_corpus, VOCAB_MIXED,
        DecoderConfig(pattern_change_penalty=2.0, timesig_change_penalty=0.0),
    )
    _, _, tdisc_on = corpus_metrics(
        mixed_corpus, VOCAB_MIXED,
        DecoderConfig(pattern_change_penalty=2.0, timesig_change_penalty=6.0),
    )
    assert tdisc_off > 0.01
    assert tdisc_off >= 10.0 * tdisc_on
    report(4, f"pattern disc {pdisc_off*100:.1f}% -> {pdisc_on*100:.1f}% "
              f"({reduction*100:.0f}% reduction) at F1 shift "
              f"{abs(f1_on-f1_off)*100:.2f} points; "
              f"timesig disc {tdisc_off*100:.1f}% -> {tdisc_on*100:.2f}%")


# ---------------------------------------------------------------------------
# criterion 5: switch monotonicity


def test_c05_switch_monotonicity(noisy_corpus):
    violations = 0
    grid = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
    for song in noisy_corpus[:50]:
        counts = []
        for c1 in grid:
            t = decode_song(
                song, VOCAB_44,
                DecoderConfig(pattern_change_penalty=c1, timesig_change_penalty=6.0),
            )
            starts = [e.pattern_id for e in t.entries if e.phase == 0]
            counts.append(sum(1 for a, b in zip(starts, starts[1:]) if a != b))
        if any(b > a for a, b in zip(counts, counts[1:])):
            violations += 1
    assert violations == 0
    report(5, f"pattern-change counts non-increasing along c1 grid {grid} "
              f"on 50 instances; 0 violations")


# ---------------------------------------------------------------------------
# criterion 6: matching oracle


def test_c06_matching_oracle():
    rng = np.random.default_rng(6)
    for _ in range(500):
        reference = sorted(set(np.round(rng.uniform(0, 3, size=rng.integers(0, 11)), 2)))
        estimate = sorted(set(np.round(rng.uniform(0, 3, size=rng.integers(0, 11)), 2)))
        tolerance = float(rng.choice([0.03, 0.08, 0.2, 0.6]))
        result = match_events(reference, estimate, tolerance)
        assert result.true_positives == brute_max_matching(reference, estimate, tolerance)
    report(6, "500 random cases: matching TP equals brute-force maximum exactly")


# ---------------------------------------------------------------------------
# criterion 7: bar-line post-processing


def corrupt_grid(rng, measures=60, spacing=2.0):
    true = [spacing * i for i in range(measures + 1)]
    times = set(true)
    interior = true[1:-1]
    for idx in rng.choice(len(interior), size=round(0.05 * len(interior)), replace=False):
        times.discard(interior[idx])
    for m in rng.choice(measures, size=round(0.10 * measures), replace=False):
        times.add(spacing * m + spacing * rng.uniform(0.2, 0.8))
    return true, sorted(times)


def test_c07_barline_postprocessing():
    rng = np.random.default_rng(42)
    raw_rates, post_rates, f1s = [], [], []
    for _ in range(20):
        true, corrupted = corrupt_grid(rng)
        raw = BarlineTrack(tuple(corrupted))
        cleaned = postprocess_barlines(raw)
        raw_rates.append(discontinuity_rate(raw))
        post_rates.append(discontinuity_rate(cleaned))
        f1s.append(match_events(true, cleaned.times_sec, 0.07).f1)
    raw_rate, post_rate, f1 = np.mean(raw_rates), np.mean(post_rates), np.mean(f1s)
    assert post_rate <= 0.005
    assert f1 >= 0.95
    assert raw_rate >= 5.0 * max(post_rate, raw_rate / 1e6)

    # DP optimality against full enumeration on small tracks
    cfg = PostprocConfig(subdivision_factors=(1, 2, 3))
    for _ in range(30):
        n = int(rng.integers(4, 11))
        base = list(np.cumsum(rng.uniform(1.0, 2.5, size=n)))
        if n > 4 and rng.random() < 0.5:
            base.pop(int(rng.integers(1, len(base) - 1)))
        if rng.random() < 0.5:
            j = int(rng.integers(0, len(base) - 1))
            base.append(float(rng.uniform(base[j] + 0.1, base[j + 1] - 0.1)))
        times = sorted(base)
        _, dp_cost = postprocess_barlines_with_cost(BarlineTrack(tuple(times)), cfg)
        assert dp_cost == pytest.approx(brute_barline_cost(times, cfg), abs=1e-9)
    report(7, f"cleanup: discontinuity {raw_rate*100:.1f}% -> {post_rate*100:.2f}% "
              f"(>=5x), bar-line F1 {f1*100:.1f}% at 70 ms; DP cost equals "
              f"enumeration on 30 small tracks")


# ---------------------------------------------------------------------------
# criterion 8: metric definitions


def test_c08_metric_definitions():
    assert discontinuity_rate(BarlineTrack((0.0, 2.0, 4.0, 5.0, 6.0))) == 0.25

    sig = TimeSignature(4, 4)
    entries = tuple(
        TranscriptionEntry(i, pid, 0, sig) for i, pid in enumerate(["A", "A", "B", "B"])
    )
    assert pattern_discontinuity(Transcription(entries, 0.0)) == 0.25

    result = match_events([1.0, 2.0], [1.03, 2.2], 0.05)
    assert result.f1 == 0.5
    report(8, "hand-computed fixtures exact: measure disc 25%, pattern disc 25%, F1 0.5")


# ---------------------------------------------------------------------------
# criterion 9: onset detector


def test_c09_onset_detector():
    rng = np.random.default_rng(42)
    times = np.sort(np.arange(30) * 0.5 + 0.2 + rng.uniform(-0.02, 0.02, 30))
    audio = pluck_train(times.tolist(), seed=7)
    detected = detect_onsets(audio)
    f1 = match_events(times.tolist(), detected.times_sec, 0.05).f1
    assert f1 >= 0.95

    silence = detect_onsets(
        type(audio)(pcm=np.zeros(44100), full_scale=1.0, sample_rate=44100)
    )
    assert len(silence) == 0
    report(9, f"pluck-train onset F1 {f1*100:.1f}% at 50 ms; silence yields 0 onsets")


# ---------------------------------------------------------------------------
# criterion 10: determinism and performance


def c10_instance():
    """300 measures of a seed-1 song against about 1000 random seed-0
    patterns in 4/4 and 3/4, two of them 2-measure: (measures, vocab)."""
    rng = np.random.default_rng(0)
    patterns, seen = [], set()
    signatures = [TimeSignature(4, 4), TimeSignature(3, 4)]
    while len(patterns) < 998:
        size = int(rng.integers(1, 9))
        grid = tuple(sorted(rng.choice(16, size=size, replace=False) / 16))
        sig = signatures[int(rng.integers(2))]
        if (sig, grid) in seen:
            continue
        seen.add((sig, grid))
        patterns.append(RhythmicPattern(f"P{len(patterns)}", sig, (grid,)))
    patterns.append(RhythmicPattern("T1", signatures[0], ((0.0, 0.5), (0.25, 0.75))))
    patterns.append(RhythmicPattern("T2", signatures[1], ((0.0,), (0.5,))))
    vocab = Vocabulary(patterns)
    song = generate_song(
        SynthSpec(seed=1, vocab=GEN_44, measures=300, sigma_norm=0.02, switch_prob=0.2)
    )
    measures, _ = bin_strums(song.observed, song.barlines)
    return measures, vocab


def test_c10_determinism_and_performance():
    measures, vocab = c10_instance()
    assert len(vocab) >= 1000

    started = time.perf_counter()
    first = decode(measures, vocab, DecoderConfig())
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0

    second = decode(measures, vocab, DecoderConfig())
    assert first == second
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )

    spec = SynthSpec(
        seed=42, vocab=VOCAB_44, measures=32, sigma_norm=0.02,
        switch_prob=0.2, miss_rate=0.02, spurious_rate=0.02,
    )
    assert generate_song(spec) == generate_song(spec)
    report(10, f"300 measures x {len(vocab)} patterns decoded in {elapsed*1000:.0f} ms "
               f"(< 1 s); repeated runs byte-identical")
