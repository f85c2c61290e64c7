"""Tests of the benchmark itself: inputs, output checks and tracing.

Run with `python3 -m pytest strumbench/tests -q` from the repository root.
"""

import itertools
import json
import statistics
from pathlib import Path

import numpy as np
import pytest

import inputs
import outputs
import run
from tracer import HOOK_SPAN, OP_SPAN, Tracer
from worker import Client


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(tmp_path, workload):
    first = inputs.write_workload(workload, 7, tmp_path / "a")
    second = inputs.write_workload(workload, 7, tmp_path / "b")
    other = inputs.write_workload(workload, 8, tmp_path / "c")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    strip = lambda m: json.dumps(m).replace(str(tmp_path / "a"), "").replace(str(tmp_path / "b"), "")
    assert strip(first) == strip(second)
    assert len(first["songs"]) == inputs.SPECS[workload].pool
    assert other["songs"][0]["true_plucks"] != first["songs"][0]["true_plucks"]


def test_corrupted_barlines_keep_the_ends_and_stay_ascending():
    rng = np.random.default_rng(3)
    bars = [2.0 * i for i in range(81)]
    raw = inputs.corrupt_barlines(rng, bars)
    assert raw[0] == bars[0] and raw[-1] == bars[-1]
    assert all(b > a for a, b in zip(raw, raw[1:]))
    assert raw != bars


@pytest.fixture(scope="module")
def small_client(tmp_path_factory):
    from strumscribe import cli

    root = tmp_path_factory.mktemp("decode")
    manifest = inputs.write_workload("decode_bigvocab", 5, root / "inputs")
    manifest["songs"] = manifest["songs"][:2]
    return Client({"out_dir": str(root / "out")}, manifest, cli)


def test_every_op_passes_its_checks_and_repeats_byte_for_byte(small_client):
    for index in range(4):
        _, ok, measures = small_client.run_op(index)
        assert ok, small_client.failures
        assert measures == inputs.SPECS["decode_bigvocab"].song.measures


def test_output_check_rejects_a_perturbed_transcription(small_client):
    song, out, _, measures = small_client.ops[0]
    assert small_client.run_op(0)[1]
    original = Path(out["transcription"]).read_text(encoding="utf-8")
    transcription = json.loads(original)
    vocab = small_client.vocab
    assert outputs.cost_matches(transcription, measures, vocab)

    costlier = dict(transcription, total_cost=transcription["total_cost"] * (1 + 1e-6) + 1e-6)
    assert not outputs.cost_matches(costlier, measures, vocab)

    swapped = json.loads(original)
    entry = next(e for e in swapped["measures"] if e["pattern_id"] in ("QUARTERS", "HALF"))
    entry["pattern_id"] = "HALF" if entry["pattern_id"] == "QUARTERS" else "QUARTERS"
    assert not outputs.cost_matches(swapped, measures, vocab)

    Path(out["transcription"]).write_text(json.dumps(swapped, indent=2, sort_keys=True) + "\n",
                                          encoding="utf-8")
    ok, _ = small_client.check(song, out, measures, [0, 0, 0], "")
    assert not ok
    assert "digest" in small_client.failures[-1]


def test_a_nonzero_exit_code_fails_the_op(small_client):
    song, out, _, measures = small_client.ops[1]
    assert small_client.run_op(1)[1]
    ok, _ = small_client.check(song, out, measures, [0, 1, 0], "error: boom")
    assert not ok


def test_scalar_cost_rejects_an_invalid_tiling():
    vocab = inputs.small_vocabulary()
    measures = [[0.0, 0.5], [0.0, 0.25, 0.5]]
    lone_phase_one = {"total_cost": 0.0, "measures": [
        {"index": 0, "pattern_id": "HALF", "phase": 0, "time_signature": "4/4"},
        {"index": 1, "pattern_id": "TWOBAR", "phase": 1, "time_signature": "4/4"},
    ]}
    with pytest.raises(ValueError):
        outputs.scalar_total_cost(lone_phase_one, measures, vocab)
    twobar = {"total_cost": 0.0, "measures": [
        {"index": 0, "pattern_id": "TWOBAR", "phase": 0, "time_signature": "4/4"},
        {"index": 1, "pattern_id": "TWOBAR", "phase": 1, "time_signature": "4/4"},
    ]}
    assert outputs.scalar_total_cost(twobar, [[0.0, 0.5, 0.75], [0.0, 0.25, 0.5]], vocab) == 0.0


def _brute_matching(reference, estimate, tolerance):
    best = 0
    for size in range(min(len(reference), len(estimate)), 0, -1):
        for refs in itertools.combinations(reference, size):
            for ests in itertools.permutations(estimate, size):
                if all(abs(r - e) <= tolerance for r, e in zip(refs, ests)):
                    return size
    return best


def test_match_count_is_a_maximum_matching():
    rng = np.random.default_rng(11)
    for _ in range(200):
        reference = sorted(rng.uniform(0, 1, int(rng.integers(0, 5))).round(2).tolist())
        estimate = sorted(rng.uniform(0, 1, int(rng.integers(0, 5))).round(2).tolist())
        assert outputs.match_count(reference, estimate, 0.1) == _brute_matching(reference, estimate, 0.1)


def test_self_time_is_duration_minus_child_coverage():
    # op 0-10 holds outer 1-8, which holds inner 2-4 and inner 5-6
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner.fn", lambda: None)
    outer = tracer.wrap("outer.fn", lambda: (inner(), inner()))
    tracer.begin_op(0, {})
    outer()
    assert tracer.end_op() == 10.0
    op = tracer.per_op()[0]
    assert op["wall"] == 10.0
    assert dict(op["self"]) == {OP_SPAN: 3.0, "outer.fn": 4.0, "inner.fn": 3.0}
    parents = [s["parent"] for s in tracer.spans]
    assert parents == [None, 0, 1, 1]


def test_traced_self_times_sum_to_op_wall_time_within_the_overhead(small_client):
    untraced = small_client.loop(0.0)  # one pass over the pool
    tracer = Tracer()
    restore = tracer.install()
    try:
        traced = small_client.loop(0.0, tracer)
    finally:
        restore()
    assert traced["failed"] == untraced["failed"] == 0
    overhead = statistics.median(traced["latencies"]) - statistics.median(untraced["latencies"])
    wall_p50 = statistics.median(untraced["latencies"])
    per_op = tracer.per_op()
    assert len(per_op) == len(traced["latencies"])
    for op in per_op.values():
        assert sum(op["self"].values()) == pytest.approx(op["wall"], abs=1e-9)
        layers = sum(v for k, v in op["self"].items() if k not in (OP_SPAN, HOOK_SPAN))
        assert op["wall"] - layers <= max(overhead, 0.0) + 0.25 * wall_p50
        assert op["self"]["cli.main"] > 0
        assert op["counters"]["vocabulary.loads_per_op"] == 3


def test_install_restores_the_original_functions():
    from strumscribe import cli, decoder, likelihood

    originals = (cli.main, decoder.decode, decoder.contribution_tables, likelihood.contribution_tables)
    restore = Tracer().install()
    assert decoder.contribution_tables is not originals[2]
    assert decoder.contribution_tables.__wrapped__ is originals[2]
    restore()
    assert (cli.main, decoder.decode, decoder.contribution_tables,
            likelihood.contribution_tables) == originals


def test_tail_latency_leaves_ten_samples_beyond():
    value, percentile, beyond = run.tail_latency([float(i) for i in range(100)])
    assert (value, percentile, beyond) == (89.0, 90.0, 10)
    assert sum(1 for i in range(100) if i > value) == 10
    assert run.tail_latency([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)


def test_reported_metrics_are_the_ones_benchmark_json_declares():
    declared = json.loads(run.BENCHMARK.read_text(encoding="utf-8"))
    op = {"wall": 1.0, "self": {"cli.main": 1.0}, "counters": {"vocabulary.loads_per_op": 1.0}}
    produced = run.per_layer_metrics([op], overhead=0.0)
    assert set(produced) == {m["name"] for m in declared["per_layer"]}
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert all(unit == units[name] for name, (_, unit) in produced.items())
