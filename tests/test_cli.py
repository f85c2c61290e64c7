import argparse
import contextlib
import dataclasses
import io
import json
import os
import struct
import subprocess
import sys
import warnings
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strumscribe import cli, vocabulary
from strumscribe.cli import RunConfig, _config_from_args, build_parser, main
from strumscribe.render import LossyRenderWarning

from conftest import make_vocab, vocab_payload
from oracles import mono_signal
from test_onsets import chunk, fmt_chunk, pluck_train, rf64, riff


@pytest.fixture
def vocab_file(tmp_path, basic_vocab):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps(vocab_payload(basic_vocab)))
    return str(path)


@pytest.fixture
def synth_dir(tmp_path, vocab_file):
    out = tmp_path / "song"
    code = main(
        [
            "synth",
            "--vocab", vocab_file,
            "--out-dir", str(out),
            "--measures", "12",
            "--switch-prob", "0.3",
            "--sigma-norm", "0.01",
            "--seed", "5",
        ]
    )
    assert code == 0
    return out


def run(args):
    return main([str(a) for a in args])


def fresh_python(script, *args, cwd=None):
    """`python -c script *args` in a fresh interpreter that imports this
    checkout's strumscribe: it shows what a one-shot process loads."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


# the arguments each subcommand requires, enough to parse its flags
REQUIRED = {
    "onsets": ["--audio", "a.wav", "--out", "o.json"],
    "barlines": ["--raw", "r.json", "--out", "o.json"],
    "decode": ["--strums", "s.json", "--barlines", "b.json", "--vocab", "v.json",
               "--out", "o.json"],
    "eval": ["--out", "o.json"],
    "synth": ["--vocab", "v.json", "--out-dir", "d"],
    "render": ["--transcription", "t.json", "--vocab", "v.json"],
    "pipeline": ["--audio", "a.wav", "--raw-barlines", "r.json", "--vocab", "v.json",
                 "--out", "o.json"],
}


class TestSynthCommand:
    def test_outputs_exist(self, synth_dir):
        for name in (
            "strums.json",
            "nominal_strums.json",
            "barlines.json",
            "transcription.json",
            "ground_truth.json",
        ):
            assert (synth_dir / name).exists()

    def test_deterministic(self, tmp_path, vocab_file):
        dirs = []
        for label in ("a", "b"):
            out = tmp_path / label
            assert run(
                ["synth", "--vocab", vocab_file, "--out-dir", out,
                 "--measures", 8, "--sigma-norm", "0.02", "--seed", 7]
            ) == 0
            dirs.append(out)
        for name in ("strums.json", "ground_truth.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


class TestDecodeCommand:
    def test_decode_recovers_synth_song(self, tmp_path, vocab_file, synth_dir, capsys):
        out = tmp_path / "t.json"
        code = run(
            ["decode", "--strums", synth_dir / "strums.json",
             "--barlines", synth_dir / "barlines.json",
             "--vocab", vocab_file, "--out", out]
        )
        assert code == 0
        assert "discarded 0 out-of-range strums" in capsys.readouterr().err
        decoded = json.loads(out.read_text())
        truth = json.loads((synth_dir / "transcription.json").read_text())
        # silent measures may legitimately decode to the other signature's
        # empty pattern; played measures must match exactly
        for got, want in zip(decoded["measures"], truth["measures"], strict=True):
            if want["pattern_id"].startswith("EMPTY_"):
                assert got["pattern_id"].startswith("EMPTY_")
            else:
                assert got["pattern_id"] == want["pattern_id"]

    def test_byte_identical_across_runs(self, tmp_path, vocab_file, synth_dir):
        outs = []
        for label in ("a.json", "b.json"):
            out = tmp_path / label
            assert run(
                ["decode", "--strums", synth_dir / "strums.json",
                 "--barlines", synth_dir / "barlines.json",
                 "--vocab", vocab_file, "--out", out]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_file_exit_2(self, tmp_path, vocab_file, capsys):
        code = run(
            ["decode", "--strums", tmp_path / "nope.json",
             "--barlines", tmp_path / "nope2.json",
             "--vocab", vocab_file, "--out", tmp_path / "o.json"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["strums", "barlines"])
    @pytest.mark.parametrize(
        "text",
        ["{broken", '{"KEY": null}', '{"KEY": 5}', '{"KEY": "0.1"}',
         '{"KEY": [0.1, null]}', '{"KEY": [0.1, true]}', '{"KEY": [0.1, 1%s]}' % ("0" * 400)],
        ids=["broken", "null", "number", "string", "null_item", "bool_item", "huge_int"],
    )
    def test_invalid_json_exit_1(self, tmp_path, vocab_file, synth_dir, capsys, which, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace("KEY", f"{which}_sec"))
        files = {"strums": synth_dir / "strums.json", "barlines": synth_dir / "barlines.json"}
        files[which] = bad
        code = run(
            ["decode", "--strums", files["strums"], "--barlines", files["barlines"],
             "--vocab", vocab_file, "--out", tmp_path / "o.json"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        if text == "{broken":
            kind = {"strums": "strum", "barlines": "bar-line"}[which]
            assert err.startswith(f"error: {kind} file {bad} is not valid JSON: ")


    @pytest.mark.parametrize("command", ["barlines", "decode"])
    def test_bar_lines_not_utf8_exit_1(self, tmp_path, vocab_file, synth_dir, capsys, command):
        # a file that ends in a lone lead byte fails to decode before the
        # bar-line loader sees it; the error line still names the input
        bad = tmp_path / "bad.json"
        bad.write_bytes((synth_dir / "barlines.json").read_bytes() + b"\xc3")
        out = tmp_path / "o.json"
        args = {"barlines": ["barlines", "--raw", bad, "--out", out],
                "decode": ["decode", "--strums", synth_dir / "strums.json", "--barlines", bad,
                           "--vocab", vocab_file, "--out", out]}[command]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bar-line file {bad} is not UTF-8: 'utf-8' codec can't "
                              "decode byte 0xc3 in position ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_uncoverable_measure_exit_1(self, tmp_path, capsys):
        # the only played pattern spans 2 measures: it covers measures 0-1 of
        # a 3-measure played song and cannot start at the final measure
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps(vocab_payload(make_vocab(("TWO", "4/4", [0.0], [0.5])))))
        strums = tmp_path / "strums.json"
        strums.write_text(json.dumps({"strums_sec": [0.0, 2.0, 4.0]}))
        barlines = tmp_path / "barlines.json"
        barlines.write_text(json.dumps({"barlines_sec": [0.0, 2.0, 4.0, 6.0]}))
        out = tmp_path / "o.json"
        code = run(
            ["decode", "--strums", strums, "--barlines", barlines, "--vocab", vocab, "--out", out]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [
            "error: no feasible pattern assignment: measure 2 cannot be covered"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "literal",
        ["null", "1" + "0" * 400, '"0.0"', "false", "true"],
        ids=["null", "huge_int", "string", "false", "true"],
    )
    def test_mistyped_vocab_onset_exit_1(
        self, tmp_path, basic_vocab, synth_dir, capsys, literal
    ):
        payload = vocab_payload(basic_vocab)
        twobar = next(p for p in payload["patterns"] if p["id"] == "TWOBAR")
        twobar["onsets"][1][0] = "SLOT"
        vocab = tmp_path / "bad_vocab.json"
        vocab.write_text(json.dumps(payload).replace('"SLOT"', literal))
        out = tmp_path / "o.json"
        code = run(
            ["decode", "--strums", synth_dir / "strums.json",
             "--barlines", synth_dir / "barlines.json", "--vocab", vocab, "--out", out]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "'TWOBAR'" in err and "onsets[1][0]" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, literal",
        [("measures", "true"), ("measures", "1.0"), ("measures", '"1"'), ("measures", "null"),
         ("name", '{"x": 1}'), ("name", "5"), ("name", "null")],
        ids=["measures_true", "measures_float", "measures_str", "measures_null",
             "name_object", "name_number", "name_null"],
    )
    def test_mistyped_vocab_field_exit_1(
        self, tmp_path, basic_vocab, synth_dir, capsys, key, literal
    ):
        payload = vocab_payload(basic_vocab)
        quarters = next(p for p in payload["patterns"] if p["id"] == "QUARTERS")
        quarters[key] = "SLOT"
        vocab = tmp_path / "bad_vocab.json"
        vocab.write_text(json.dumps(payload).replace('"SLOT"', literal))
        out = tmp_path / "o.json"
        code = run(
            ["decode", "--strums", synth_dir / "strums.json",
             "--barlines", synth_dir / "barlines.json", "--vocab", vocab, "--out", out]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert f"pattern 'QUARTERS': {key}" in err
        assert not out.exists()


# a valid decode: two 4/4 measures of quarters, then the two measures of a
# 3/4 pattern
DECODE_BASE = {
    "strums": json.dumps({"strums_sec": [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.75, 5.5]}),
    "barlines": json.dumps({"barlines_sec": [0.0, 2.0, 4.0, 5.5, 7.0]}),
    "vocab": json.dumps({"patterns": [
        {"id": "Q", "time_signature": "4/4", "measures": 1, "onsets": [[0.0, 0.25, 0.5, 0.75]]},
        {"id": "W", "time_signature": "3/4", "measures": 2, "onsets": [[0.0, 0.5], [0.0]]},
    ]}),
}
# values of every JSON type, and of the types a field expects but out of range
SWAP_VALUES = [None, True, False, 0, -1, 2, 1.5, -0.25, 1e308, 10**400, float("nan"),
               float("inf"), "", "x", "4/4", "0/4", [], [0.5], [[0.5]], {}, {"x": 1}]
# (kind, position, value): flips, cuts and inserts on the file's bytes, or a
# JSON value (the position-th in document order) swapped for another
json_mutations = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 400), st.integers(0, 255)),
    st.tuples(st.just("cut"), st.integers(0, 400), st.none()),
    st.tuples(st.just("insert"), st.integers(0, 400), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("swap"), st.integers(0, 100), st.sampled_from(SWAP_VALUES)),
)


def json_values(node):
    """Every value in a parsed JSON document, the root first, each as a
    (container, key) pair that sets it; the root's container is None."""
    found = [(None, None)]
    stack = [node]
    while stack:
        container = stack.pop()
        keys = container.keys() if isinstance(container, dict) else range(len(container))
        for key in keys:
            found.append((container, key))
            if isinstance(container[key], (dict, list)):
                stack.append(container[key])
    return found


def mutate_json(text, mutations):
    data = bytearray(text.encode())
    for kind, at, value in mutations:
        if kind == "swap":
            try:
                document = json.loads(data)
            except ValueError:
                continue
            values = json_values(document) if isinstance(document, (dict, list)) else [(None, None)]
            container, key = values[at % len(values)]
            if container is None:
                document = value
            else:
                container[key] = value
            data = bytearray(json.dumps(document).encode())
            continue
        at %= len(data) + 1
        if kind == "flip" and at < len(data):
            data[at] = value
        elif kind == "cut":
            del data[at:]
        elif kind == "insert":
            data[at:at] = value
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(which=st.sampled_from(sorted(DECODE_BASE)),
       mutations=st.lists(json_mutations, min_size=1, max_size=3))
# null for the 3/4 pattern's second measure of onsets; NaN for the first bar line
@example(which="vocab", mutations=[("swap", 9, None)])
@example(which="barlines", mutations=[("swap", 2, float("nan"))])
# a lone 0xc3 lead byte at the end of the file
@example(which="barlines", mutations=[("insert", len(DECODE_BASE["barlines"]), b"\xc3")])
def test_mutated_decode_inputs_exit_0_1_or_2(tmp_path_factory, which, mutations):
    # decode succeeds, or ends with one error line, no traceback and no output
    folder = tmp_path_factory.mktemp("decode")
    for name, text in DECODE_BASE.items():
        payload = mutate_json(text, mutations) if name == which else text.encode()
        (folder / f"{name}.json").write_bytes(payload)
    out = folder / "out.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(["decode", "--strums", folder / "strums.json",
                    "--barlines", folder / "barlines.json", "--vocab", folder / "vocab.json",
                    "--out", out])
    assert code in (0, 1, 2)
    if code:
        # a stage that succeeded before the failure may have printed a note
        lines = err.getvalue().splitlines()
        assert lines and [line for line in lines if line.startswith("error:")] == lines[-1:], lines
        assert "Traceback" not in err.getvalue()
        assert not out.exists()


# DECODE_BASE's vocabulary and bar lines, its song's transcription, the
# strums it was decoded from as ground truth, and a manifest record naming
# those files
EVAL_BASE = {
    "vocab": DECODE_BASE["vocab"],
    "barlines": DECODE_BASE["barlines"],
    "ground_truth": DECODE_BASE["strums"],
    "transcription": json.dumps({"total_cost": 0.5, "measures": [
        {"index": 0, "pattern_id": "Q", "phase": 0, "time_signature": "4/4"},
        {"index": 1, "pattern_id": "Q", "phase": 0, "time_signature": "4/4"},
        {"index": 2, "pattern_id": "W", "phase": 0, "time_signature": "3/4"},
        {"index": 3, "pattern_id": "W", "phase": 1, "time_signature": "3/4"},
    ]}),
    "manifest": json.dumps({"song_id": "s", "transcription": "transcription.json",
                            "barlines": "barlines.json", "ground_truth": "ground_truth.json",
                            "vocab": "vocab.json"}),
}


def run_mutated(command, which, mutations, tmp_path_factory):
    """Write EVAL_BASE with file `which` mutated, run the command line that
    `command` builds from the folder, and check that it succeeds or ends
    with one error line, no traceback and no output file."""
    folder = tmp_path_factory.mktemp(which)
    for name, text in EVAL_BASE.items():
        payload = mutate_json(text, mutations) if name == which else text.encode()
        (folder / f"{name}.json").write_bytes(payload)
    out = folder / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(command(folder, out))
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert "Traceback" not in err.getvalue()
        assert not out.exists()


@settings(max_examples=200, deadline=None)
@given(which=st.sampled_from(["transcription", "vocab"]),
       mutations=st.lists(json_mutations, min_size=1, max_size=3))
# a mutated onset off the 16th grid renders lossily, which is a success
@pytest.mark.filterwarnings("ignore::strumscribe.render.LossyRenderWarning")
def test_mutated_render_inputs_exit_0_1_or_2(tmp_path_factory, which, mutations):
    run_mutated(
        lambda folder, out: ["render", "--transcription", folder / "transcription.json",
                             "--vocab", folder / "vocab.json", "--out", out],
        which, mutations, tmp_path_factory)


@settings(max_examples=300, deadline=None)
@given(which=st.sampled_from(["transcription", "barlines", "ground_truth", "vocab", "manifest"]),
       mutations=st.lists(json_mutations, min_size=1, max_size=3),
       via_manifest=st.booleans())
# a lone 0xc3 lead byte at the end of the manifest
@example(which="manifest", mutations=[("insert", len(EVAL_BASE["manifest"]), b"\xc3")],
         via_manifest=True)
def test_mutated_eval_inputs_exit_0_1_or_2(tmp_path_factory, which, mutations, via_manifest):
    def command(folder, out):
        if via_manifest or which == "manifest":
            return ["eval", "--manifest", folder / "manifest.json", "--out", out]
        return ["eval", "--transcription", folder / "transcription.json",
                "--barlines", folder / "barlines.json", "--vocab", folder / "vocab.json",
                "--ground-truth", folder / "ground_truth.json", "--out", out]

    run_mutated(command, which, mutations, tmp_path_factory)


@settings(max_examples=200, deadline=None)
@given(mutations=st.lists(json_mutations, min_size=1, max_size=3), bypass=st.booleans())
@example(mutations=[("insert", len(EVAL_BASE["barlines"]), b"\xc3")], bypass=False)
@example(mutations=[("insert", len(EVAL_BASE["barlines"]), b"\xc3")], bypass=True)
def test_mutated_barlines_input_exit_0_1_or_2(tmp_path_factory, mutations, bypass):
    run_mutated(
        lambda folder, out: ["barlines", "--raw", folder / "barlines.json", "--out", out,
                             *(["--no-barline-postproc"] if bypass else [])],
        "barlines", mutations, tmp_path_factory)


@settings(max_examples=200, deadline=None)
@given(mutations=st.lists(json_mutations, min_size=1, max_size=3))
def test_mutated_synth_input_exit_0_1_or_2(tmp_path_factory, mutations):
    run_mutated(
        lambda folder, out: ["synth", "--vocab", folder / "vocab.json", "--out-dir", out,
                             "--measures", "4"],
        "vocab", mutations, tmp_path_factory)


# malformed transcription payloads, as (edit, field named in the error); an
# edit maps a valid transcription dict to a broken one
BAD_TRANSCRIPTIONS = {
    "measures_number": (lambda t: {**t, "measures": 5}, "measures"),
    "measures_item_number": (lambda t: {**t, "measures": [5]}, "measures[0]"),
    "pattern_id_list": (lambda t: _edit_first(t, pattern_id=["Q"]), "measures[0].pattern_id"),
    "index_false": (lambda t: _edit_first(t, index=False), "measures[0].index"),
    "phase_false": (lambda t: _edit_first(t, phase=False), "measures[0].phase"),
    "index_float": (lambda t: _edit_first(t, index=0.0), "measures[0].index"),
    "time_signature_number": (lambda t: _edit_first(t, time_signature=4), "time_signature"),
    "index_missing": (lambda t: _edit_first(t, index=None), "measures[0]"),
    "total_cost_string": (lambda t: {**t, "total_cost": "1.5"}, "total_cost"),
    "total_cost_null": (lambda t: {**t, "total_cost": None}, "total_cost"),
    "not_an_object": (lambda t: [t], "total_cost"),
}


def _edit_first(transcription, **fields):
    """Set fields of the first measure record; a field set to None is removed."""
    first = dict(transcription["measures"][0], **fields)
    first = {k: v for k, v in first.items() if v is not None}
    return {**transcription, "measures": [first] + transcription["measures"][1:]}


@pytest.mark.parametrize("command", ["render", "eval"])
@pytest.mark.parametrize("case", sorted(BAD_TRANSCRIPTIONS))
def test_malformed_transcription_exit_1(tmp_path, vocab_file, synth_dir, capsys, command, case):
    edit, field = BAD_TRANSCRIPTIONS[case]
    bad = tmp_path / "t.json"
    bad.write_text(json.dumps(edit(json.loads((synth_dir / "transcription.json").read_text()))))
    out = tmp_path / "out"
    if command == "render":
        args = ["render", "--transcription", bad, "--vocab", vocab_file, "--out", out]
    else:
        args = ["eval", "--transcription", bad, "--barlines", synth_dir / "barlines.json",
                "--vocab", vocab_file, "--ground-truth", synth_dir / "nominal_strums.json",
                "--out", out]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert field in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["render", "eval"])
def test_transcription_not_json_exit_1(tmp_path, vocab_file, synth_dir, capsys, command):
    bad = tmp_path / "t.json"
    bad.write_text((synth_dir / "transcription.json").read_text()[:-20])
    out = tmp_path / "out"
    args = {"render": ["render", "--transcription", bad, "--vocab", vocab_file, "--out", out],
            "eval": ["eval", "--transcription", bad, "--barlines", synth_dir / "barlines.json",
                     "--vocab", vocab_file, "--ground-truth", synth_dir / "nominal_strums.json",
                     "--out", out]}[command]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: transcription file {bad} is not valid JSON: ")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["config", "manifest"])
def test_config_or_manifest_not_utf8_exit_1(tmp_path, synth_dir, capsys, kind):
    # a file that ends in a lone lead byte: the error line names the input
    # kind and the path, as for every other text input
    bad = tmp_path / f"{kind}.json"
    out = tmp_path / "o.json"
    if kind == "config":
        bad.write_bytes(b'{"seed": 1}\xc3')
        args = ["barlines", "--raw", synth_dir / "barlines.json", "--out", out, "--config", bad]
    else:
        bad.write_bytes(EVAL_BASE["manifest"].encode() + b"\xc3")
        args = ["eval", "--manifest", bad, "--out", out]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind} file {bad} is not UTF-8: 'utf-8' codec can't "
                          "decode byte 0xc3 in position ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32"])
@pytest.mark.parametrize("command", ["barlines", "barlines_bypass", "pipeline", "decode", "eval"])
def test_bar_lines_with_bom_or_not_utf8_exit_1(tmp_path, synth_dir, vocab_file, silent_song,
                                               capsys, command, encoding):
    # every command reads its bar-line file as UTF-8 without a BOM, so a
    # byte order mark, or a UTF-16 or UTF-32 file, is one error line
    # naming the bar-line input, whichever command reads it
    bad = tmp_path / "bom.json"
    bad.write_bytes((synth_dir / "barlines.json").read_text().encode(encoding))
    wav, _, _ = silent_song
    out = tmp_path / "o.json"
    args = {
        "barlines": ["barlines", "--raw", bad, "--out", out],
        "barlines_bypass": ["barlines", "--raw", bad, "--out", out, "--no-barline-postproc"],
        "pipeline": ["pipeline", "--audio", wav, "--raw-barlines", bad, "--vocab", vocab_file,
                     "--out", out],
        "decode": ["decode", "--strums", synth_dir / "strums.json", "--barlines", bad,
                   "--vocab", vocab_file, "--out", out],
        "eval": ["eval", "--transcription", synth_dir / "transcription.json", "--barlines", bad,
                 "--vocab", vocab_file, "--ground-truth", synth_dir / "nominal_strums.json",
                 "--out", out],
    }[command]
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    if encoding == "utf-8-sig":
        assert captured.err.startswith(f"error: bar-line file {bad} is not valid JSON: "
                                       "Unexpected UTF-8 BOM")
    else:
        assert captured.err.startswith(f"error: bar-line file {bad} is not UTF-8: ")
    assert not out.exists()


# every JSON input of every command, as (command, input kind, input); an
# "eval_manifest" input is named in a manifest record
JSON_INPUTS = [
    ("decode", "strum", "strums"),
    ("decode", "bar-line", "barlines"),
    ("decode", "vocabulary", "vocab"),
    ("render", "transcription", "transcription"),
    ("render", "vocabulary", "vocab"),
    *[(command, kind, key) for command in ("eval", "eval_manifest") for kind, key in (
        ("transcription", "transcription"), ("bar-line", "barlines"),
        ("vocabulary", "vocab"), ("ground-truth", "ground_truth"))],
    ("barlines", "bar-line", "raw"),
    ("pipeline", "bar-line", "raw"),
    ("pipeline", "vocabulary", "vocab"),
    ("synth", "vocabulary", "vocab"),
]


@pytest.mark.parametrize("fault", ["truncated", "empty_object"])
@pytest.mark.parametrize("command, kind, key", JSON_INPUTS)
def test_malformed_json_input_names_kind_and_path(tmp_path, synth_dir, vocab_file, silent_song,
                                                  capsys, command, kind, key, fault):
    # cli._load names the input kind and path of every fault in a loaded
    # file: "<kind> file <path> is not valid JSON: " for text that is not
    # JSON, "<kind> file <path>: " and the loader's message for the rest
    inputs = {"strums": synth_dir / "strums.json", "barlines": synth_dir / "barlines.json",
              "raw": synth_dir / "barlines.json", "vocab": Path(vocab_file),
              "transcription": synth_dir / "transcription.json",
              "ground_truth": synth_dir / "nominal_strums.json"}
    text = inputs[key].read_text()
    bad = tmp_path / "bad.json"
    bad.write_text(text[: len(text) // 2] if fault == "truncated" else "{}")
    inputs[key] = bad
    wav, _, _ = silent_song
    out = tmp_path / "out"
    # eval names its inputs by their resolved paths
    label, path = "", bad.resolve() if command.startswith("eval") else bad
    if command == "eval_manifest":
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"song_id": "s1", **{
            name: str(inputs[name])
            for name in ("transcription", "barlines", "vocab", "ground_truth")}}) + "\n")
        label = "song_id 's1': "
    argv = {
        "decode": ["decode", "--strums", inputs["strums"], "--barlines", inputs["barlines"],
                   "--vocab", inputs["vocab"], "--out", out],
        "render": ["render", "--transcription", inputs["transcription"],
                   "--vocab", inputs["vocab"], "--out", out],
        "eval": ["eval", "--transcription", inputs["transcription"],
                 "--barlines", inputs["barlines"], "--vocab", inputs["vocab"],
                 "--ground-truth", inputs["ground_truth"], "--out", out],
        "eval_manifest": ["eval", "--manifest", tmp_path / "m.jsonl", "--out", out],
        "barlines": ["barlines", "--raw", inputs["raw"], "--out", out],
        "pipeline": ["pipeline", "--audio", wav, "--raw-barlines", inputs["raw"],
                     "--vocab", inputs["vocab"], "--out", out],
        "synth": ["synth", "--vocab", inputs["vocab"], "--out-dir", out],
    }[command]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    reason = " is not valid JSON: " if fault == "truncated" else ": "
    assert err.startswith(f"error: {label}{kind} file {path}{reason}")
    assert not out.exists()


class TestBarlinesCommand:
    def test_cleanup(self, tmp_path):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps({"barlines_sec": [0.0, 2.0, 3.0, 4.0, 6.0]}))
        out = tmp_path / "clean.json"
        assert run(["barlines", "--raw", raw, "--out", out]) == 0
        assert json.loads(out.read_text())["barlines_sec"] == [0.0, 2.0, 4.0, 6.0]

    def test_bypass_is_byte_identical(self, tmp_path):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps({"barlines_sec": [0.0, 2.0, 3.0, 4.0, 6.0]}))
        out = tmp_path / "echo.json"
        assert run(["barlines", "--raw", raw, "--out", out, "--no-barline-postproc"]) == 0
        assert out.read_bytes() == raw.read_bytes()

    def test_bypass_keeps_crlf_and_lone_cr_line_ends(self, tmp_path):
        raw = tmp_path / "raw.json"
        raw.write_bytes(b'{\r\n  "barlines_sec": [0.0,\r 2.0, 4.0]\r\n}\r\n')
        out, clean = tmp_path / "echo.json", tmp_path / "clean.json"
        assert run(["barlines", "--raw", raw, "--out", out, "--no-barline-postproc"]) == 0
        assert out.read_bytes() == raw.read_bytes()
        # cleaned, the same track is written with "\n" line ends
        lf = tmp_path / "lf.json"
        lf.write_bytes(raw.read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n"))
        assert run(["barlines", "--raw", raw, "--out", clean]) == 0
        assert run(["barlines", "--raw", lf, "--out", out]) == 0
        assert clean.read_bytes() == out.read_bytes()


class TestEvalCommand:
    def test_single_song_perfect(self, tmp_path, vocab_file, synth_dir):
        transcription = tmp_path / "t.json"
        assert run(
            ["decode", "--strums", synth_dir / "strums.json",
             "--barlines", synth_dir / "barlines.json",
             "--vocab", vocab_file, "--out", transcription]
        ) == 0
        report_path = tmp_path / "report.json"
        assert run(
            ["eval", "--transcription", transcription,
             "--barlines", synth_dir / "barlines.json",
             "--vocab", vocab_file,
             "--ground-truth", synth_dir / "nominal_strums.json",
             "--out", report_path]
        ) == 0
        report = json.loads(report_path.read_text())
        assert report["songs"][0]["f1"] == pytest.approx(1.0)

    def test_manifest_batch_aggregate(self, tmp_path, vocab_file):
        records = []
        f1_values = []
        for seed in (1, 2, 3):
            song_dir = tmp_path / f"song{seed}"
            assert run(
                ["synth", "--vocab", vocab_file, "--out-dir", song_dir,
                 "--measures", 10, "--switch-prob", "0.3", "--seed", seed]
            ) == 0
            transcription = song_dir / "decoded.json"
            assert run(
                ["decode", "--strums", song_dir / "strums.json",
                 "--barlines", song_dir / "barlines.json",
                 "--vocab", vocab_file, "--out", transcription]
            ) == 0
            records.append(
                {
                    "song_id": f"song{seed}",
                    "transcription": f"song{seed}/decoded.json",
                    "barlines": f"song{seed}/barlines.json",
                    "ground_truth": f"song{seed}/nominal_strums.json",
                }
            )
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
        report_path = tmp_path / "report.json"
        assert run(
            ["eval", "--manifest", manifest, "--vocab", vocab_file, "--out", report_path]
        ) == 0
        report = json.loads(report_path.read_text())
        assert [s["song_id"] for s in report["songs"]] == ["song1", "song2", "song3"]
        f1_values = [s["f1"] for s in report["songs"]]
        assert report["aggregate"]["f1"]["mean"] == pytest.approx(np.mean(f1_values))
        expected_sem = np.std(f1_values, ddof=1) / np.sqrt(3) if len(set(f1_values)) > 1 else 0.0
        assert report["aggregate"]["f1"]["sem"] == pytest.approx(expected_sem)

    def test_manifest_parallel_matches_serial(self, tmp_path, vocab_file, monkeypatch):
        records = []
        for seed in (3, 4):
            song_dir = tmp_path / f"s{seed}"
            assert run(
                ["synth", "--vocab", vocab_file, "--out-dir", song_dir,
                 "--measures", 8, "--seed", seed]
            ) == 0
            assert run(
                ["decode", "--strums", song_dir / "strums.json",
                 "--barlines", song_dir / "barlines.json",
                 "--vocab", vocab_file, "--out", song_dir / "decoded.json"]
            ) == 0
            records.append(
                {
                    "song_id": f"s{seed}",
                    "transcription": f"s{seed}/decoded.json",
                    "barlines": f"s{seed}/barlines.json",
                    "ground_truth": f"s{seed}/nominal_strums.json",
                }
            )
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
        pools = []
        pool = cli.ProcessPoolExecutor

        def counted_pool(*args, **kwargs):
            pools.append(kwargs)
            return pool(*args, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", counted_pool)
        reports = {}
        for jobs in (None, 1, 2):
            reports[jobs] = tmp_path / f"jobs_{jobs}.json"
            flag = [] if jobs is None else ["--jobs", jobs]
            assert run(["eval", "--manifest", manifest, "--vocab", vocab_file,
                        "--out", reports[jobs], *flag]) == 0
            # only an explicit --jobs above 1 starts a pool
            assert pools == ([{"max_workers": 2}] if jobs == 2 else [])
        assert reports[None].read_bytes() == reports[1].read_bytes() == reports[2].read_bytes()

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, vocab_file, synth_dir, jobs):
        out = tmp_path / "report.json"
        assert run(["eval", "--transcription", synth_dir / "transcription.json",
                    "--barlines", synth_dir / "barlines.json", "--vocab", vocab_file,
                    "--ground-truth", synth_dir / "nominal_strums.json",
                    "--out", out, "--jobs", jobs]) == 1
        assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "fault, code, label",
        [
            ("missing_file", 2, "song_id 'broken'"),
            ("bad_content", 1, "manifest line 3"),
            ("path_not_string", 1, "song_id 'broken'"),
            ("broken_json", 1, "manifest line 3"),
            ("not_an_object", 1, "manifest line 3"),
        ],
        ids=["missing_file", "bad_content", "path_not_string", "broken_json", "not_an_object"],
    )
    def test_manifest_error_names_record(
        self, tmp_path, vocab_file, synth_dir, capsys, jobs, fault, code, label
    ):
        good = {
            "song_id": "good",
            "transcription": str(synth_dir / "transcription.json"),
            "barlines": str(synth_dir / "barlines.json"),
            "ground_truth": str(synth_dir / "nominal_strums.json"),
        }
        (tmp_path / "bad.json").write_text('{"strums_sec": [0.1, null]}')
        no_id = {key: value for key, value in good.items() if key != "song_id"}
        bad = {
            "missing_file": json.dumps(dict(good, song_id="broken",
                                            transcription=str(tmp_path / "nope.json"))),
            "bad_content": json.dumps(dict(no_id, ground_truth=str(tmp_path / "bad.json"))),
            "path_not_string": json.dumps(dict(good, song_id="broken", barlines=5)),
            "broken_json": "{broken",
            "not_an_object": "[1, 2]",
        }[fault]
        manifest = tmp_path / "m.jsonl"
        # the blank line counts: the bad record is on manifest line 3
        manifest.write_text(json.dumps(good) + "\n\n" + bad + "\n")
        out = tmp_path / "report.json"
        assert run(
            ["eval", "--manifest", manifest, "--vocab", vocab_file, "--out", out, "--jobs", jobs]
        ) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {label}: ")
        assert not out.exists()

    def test_manifest_crlf_and_lone_cr_split_as_lf(self, tmp_path, vocab_file, synth_dir,
                                                   capsys):
        # a manifest's lines end where open() ends them, so "\r\n" and a
        # lone "\r" give the records and the error line numbers of "\n"
        record = json.dumps({
            "transcription": str(synth_dir / "transcription.json"),
            "barlines": str(synth_dir / "barlines.json"),
            "ground_truth": str(synth_dir / "nominal_strums.json"),
        })
        lines = [record, "", record, "{broken"]
        reports = []
        for ends in (["\n"] * 4, ["\r\n", "\r", "\r\n", "\r"]):
            for count, code in ((3, 0), (4, 1)):
                manifest = tmp_path / "m.jsonl"
                manifest.write_bytes("".join(map(str.__add__, lines[:count], ends)).encode())
                out = tmp_path / f"report{len(reports)}.json"
                assert run(["eval", "--manifest", manifest, "--vocab", vocab_file,
                            "--out", out]) == code
                err = capsys.readouterr().err
                if code:
                    assert err.startswith("error: manifest line 4: ")
                    assert len(err.splitlines()) == 1 and not out.exists()
                else:
                    reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert len(json.loads(reports[0])["songs"]) == 2

    def test_jobs_capped_at_record_count(self, tmp_path, vocab_file, synth_dir, monkeypatch):
        assert run(
            ["decode", "--strums", synth_dir / "strums.json",
             "--barlines", synth_dir / "barlines.json",
             "--vocab", vocab_file, "--out", synth_dir / "decoded.json"]
        ) == 0
        record = {
            "song_id": "song",
            "transcription": "song/decoded.json",
            "barlines": "song/barlines.json",
            "ground_truth": "song/nominal_strums.json",
        }
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps(record) + "\n")
        serial, capped = tmp_path / "serial.json", tmp_path / "capped.json"
        assert run(
            ["eval", "--manifest", manifest, "--vocab", vocab_file, "--out", serial,
             "--jobs", 1]
        ) == 0

        def no_pool(*args, **kwargs):
            raise AssertionError("a 1-record manifest must not start a process pool")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        assert run(
            ["eval", "--manifest", manifest, "--vocab", vocab_file, "--out", capped,
             "--jobs", 8]
        ) == 0
        assert serial.read_bytes() == capped.read_bytes()

    def test_cli_import_leaves_process_pool_unloaded(self):
        # the pool's module is imported by the first --jobs N pool alone; a
        # fresh interpreter shows what importing the CLI loaded
        script = "import sys, strumscribe.cli; sys.exit('concurrent.futures' in sys.modules)"
        result = fresh_python(script)
        assert result.returncode == 0, result.stderr


def song_argv(command, song, vocab):
    """command's arguments, but for --out, on the song a synth_dir holds."""
    return [str(a) for a in {
        "render": ["render", "--transcription", song / "transcription.json", "--vocab", vocab],
        "barlines": ["barlines", "--raw", song / "barlines.json"],
        "decode": ["decode", "--strums", song / "strums.json", "--barlines", song / "barlines.json",
                   "--vocab", vocab],
        "eval": ["eval", "--transcription", song / "transcription.json",
                 "--barlines", song / "barlines.json", "--vocab", vocab,
                 "--ground-truth", song / "nominal_strums.json"],
    }[command]]


# the subcommands that never load numpy
COMPUTE_FREE = ("barlines", "render")

# runs cli.main on the JSON argv in argv[1] and prints its exit code and the
# numpy submodules the process loaded
MAIN_AND_NUMPY = """
import json, sys
import strumscribe.cli as cli
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("numpy."))]))
"""


class TestNumpyOnFirstUse:
    def test_cli_import_loads_no_numpy_submodule(self):
        result = fresh_python(
            "import sys, strumscribe.cli; "
            "sys.exit(any(m.startswith('numpy.') for m in sys.modules))"
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("command", ["barlines", "decode", "eval", "render"])
    def test_fresh_process_writes_in_process_bytes(self, tmp_path, synth_dir, vocab_file,
                                                   command):
        argv = song_argv(command, synth_dir, vocab_file)
        in_process, fresh = tmp_path / "in_process.out", tmp_path / "fresh.out"
        # WALTZ's onsets at 1/3 and 2/3 fall between 16th-grid slots
        lossy = contextlib.nullcontext()
        if command == "render":
            lossy = pytest.warns(LossyRenderWarning, match="rendered at nearest grid slot")
        with lossy:
            assert main([*argv, "--out", str(in_process)]) == 0
        result = fresh_python(MAIN_AND_NUMPY, json.dumps([*argv, "--out", str(fresh)]))
        assert result.returncode == 0, result.stderr
        code, numpy_modules = json.loads(result.stdout.splitlines()[-1])
        assert code == 0
        assert bool(numpy_modules) == (command not in COMPUTE_FREE)
        assert fresh.read_bytes() == in_process.read_bytes()

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_only_numeric_commands_load_numpy_before_input(self, tmp_path, command):
        # none of REQUIRED's input files exists, so each run fails on its
        # first read or check, before any stage computes: numpy loads at the
        # first stage that computes, so no subcommand has loaded it yet
        result = fresh_python(MAIN_AND_NUMPY, json.dumps([command, *REQUIRED[command]]),
                              cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        code, numpy_modules = json.loads(result.stdout.splitlines()[-1])
        assert code in (1, 2)
        assert numpy_modules == []
        assert list(tmp_path.iterdir()) == []

    def test_decode_loads_no_numpy_ma(self, tmp_path, synth_dir, vocab_file):
        # np.unique would import numpy.ma for its masked-array check
        argv = [*song_argv("decode", synth_dir, vocab_file), "--out", str(tmp_path / "t.json")]
        result = fresh_python(MAIN_AND_NUMPY, json.dumps(argv))
        assert result.returncode == 0, result.stderr
        code, numpy_modules = json.loads(result.stdout.splitlines()[-1])
        assert code == 0
        assert numpy_modules and "numpy.ma" not in numpy_modules

    def test_cli_start_up_runs_no_stage_module(self):
        # a stage module cli binds stays an unloaded lazy module (not yet a
        # plain module) until a command reads one of its attributes
        script = (
            "import json, sys, types\n"
            "import strumscribe.cli as cli\n"
            "cli.build_parser()\n"
            "print(json.dumps(sorted(name for name, m in sys.modules.items()\n"
            "                        if name.startswith('strumscribe')\n"
            "                        and type(m) is types.ModuleType)))\n"
        )
        result = fresh_python(script)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [
            "strumscribe", "strumscribe._lazy", "strumscribe.cli", "strumscribe.config",
            "strumscribe.vocabulary",
        ]

    def test_numpy_imported_first_is_the_one_bound(self):
        script = "import sys, numpy, strumscribe.onsets as o; sys.exit(o.np is not numpy)"
        result = fresh_python(script)
        assert result.returncode == 0, result.stderr

    def test_missing_numpy_fails_at_import(self):
        # a None entry in sys.modules makes `import numpy` fail as if it
        # were not installed
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "try:\n"
            "    import strumscribe\n"
            "except ModuleNotFoundError as exc:\n"
            "    print(exc.name, exc)\n"
            "else:\n"
            "    print('imported')\n"
        )
        result = fresh_python(script)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "numpy No module named 'numpy'"


class TestVocabularyMemo:
    """Every command reads its vocabulary file, and load_vocabulary's memo
    parses each distinct text once per process: the commands of one process
    share its Vocabulary, and a run gives what a fresh process gives."""

    def manifest(self, tmp_path, synth_dir, vocabs):
        """A manifest of one record per entry of vocabs, a path or None for
        the --vocab fallback."""
        records = [
            {"song_id": f"s{i}", "transcription": str(synth_dir / "transcription.json"),
             "barlines": str(synth_dir / "barlines.json"),
             "ground_truth": str(synth_dir / "nominal_strums.json"),
             **({"vocab": str(vocab)} if vocab else {})}
            for i, vocab in enumerate(vocabs)
        ]
        path = tmp_path / "manifest.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_one_parse_for_manifest_sharing_vocab(self, tmp_path, vocab_file, synth_dir,
                                                   counted_parses):
        manifest = self.manifest(tmp_path, synth_dir, [None] * 3)
        assert run(["eval", "--manifest", manifest, "--vocab", vocab_file,
                    "--out", tmp_path / "report.json", "--jobs", 1]) == 0
        assert len(counted_parses) == 1
        assert len(json.loads((tmp_path / "report.json").read_text())["songs"]) == 3

    def test_manifest_parses_each_distinct_content_once(self, tmp_path, vocab_file, synth_dir,
                                                        counted_parses):
        # a copy under another name has the same content; an edited copy does not
        copy, edited = tmp_path / "copy.json", tmp_path / "edited.json"
        copy.write_bytes(Path(vocab_file).read_bytes())
        edited.write_bytes(Path(vocab_file).read_bytes() + b"\n")
        manifest = self.manifest(tmp_path, synth_dir, [None, copy, edited, vocab_file])
        assert run(["eval", "--manifest", manifest, "--vocab", vocab_file,
                    "--out", tmp_path / "report.json", "--jobs", 1]) == 0
        assert len(counted_parses) == 2
        songs = json.loads((tmp_path / "report.json").read_text())["songs"]
        assert len({json.dumps({**s, "song_id": None}, sort_keys=True) for s in songs}) == 1

    def test_bad_utf8_past_first_chunk(self, tmp_path, capsys, vocab_file, synth_dir):
        # the byte lies beyond the first 8 KiB that a text file decodes; the
        # error names its position in the whole file, as open() reports it
        vocab = tmp_path / "bad.json"
        vocab.write_bytes(Path(vocab_file).read_bytes() + b" " * 9000 + b"\xff")
        with pytest.raises(UnicodeDecodeError) as expected:
            with open(vocab, encoding="utf-8") as fp:
                fp.read()
        manifest = self.manifest(tmp_path, synth_dir, [None, vocab])
        out = tmp_path / "report.json"
        assert run(["eval", "--manifest", manifest, "--vocab", vocab_file,
                    "--out", out, "--jobs", 1]) == 1
        assert capsys.readouterr().err == (
            f"error: song_id 's1': vocabulary file {vocab.resolve()} is not UTF-8: "
            f"{expected.value}\n")
        assert not out.exists()

    def test_commands_share_one_parse(self, tmp_path, vocab_file, synth_dir, counted_parses,
                                      monkeypatch):
        loaded = []
        load = cli.load_vocabulary

        def loading(source):
            loaded.append(load(source))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_vocabulary", loading)
        transcription = tmp_path / "t.json"
        assert run(["decode", "--strums", synth_dir / "strums.json",
                    "--barlines", synth_dir / "barlines.json",
                    "--vocab", vocab_file, "--out", transcription]) == 0
        assert run(["render", "--transcription", transcription, "--vocab", vocab_file,
                    "--out", tmp_path / "sheet.txt", "--grid-resolution", 12]) == 0
        assert run(["eval", "--transcription", transcription,
                    "--barlines", synth_dir / "barlines.json", "--vocab", vocab_file,
                    "--ground-truth", synth_dir / "nominal_strums.json",
                    "--out", tmp_path / "report.json"]) == 0
        assert len(counted_parses) == 1
        assert len(loaded) == 3 and all(vocab is loaded[0] for vocab in loaded)

    def evaluate(self, synth_dir, vocab, out, fresh=False, capsys=None):
        """eval's exit code, stderr and report bytes (None when it wrote
        none), in this process or in a fresh one."""
        argv = ["eval", "--transcription", str(synth_dir / "transcription.json"),
                "--barlines", str(synth_dir / "barlines.json"), "--vocab", str(vocab),
                "--ground-truth", str(synth_dir / "nominal_strums.json"), "--out", str(out)]
        if fresh:
            result = fresh_python("import json, sys, strumscribe.cli as cli\n"
                                  "sys.exit(cli.main(json.loads(sys.argv[1])))", json.dumps(argv))
            code, err = result.returncode, result.stderr
        else:
            code, err = run(argv), capsys.readouterr().err
        return code, err, out.read_bytes() if out.exists() else None

    def test_rewritten_vocab_parsed_again(self, tmp_path, vocab_file, synth_dir, capsys,
                                          counted_parses):
        # the new text has the old one's size and the file keeps its mtime:
        # only the content tells the two apart
        vocab = Path(vocab_file)
        text = vocab.read_text()
        edited = text.replace("0.75", "0.70")
        assert edited != text and len(edited) == len(text)
        before = vocab.stat()
        first = self.evaluate(synth_dir, vocab, tmp_path / "first.json", capsys=capsys)
        vocab.write_text(edited)
        os.utime(vocab, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert vocab.stat().st_size == before.st_size
        second = self.evaluate(synth_dir, vocab, tmp_path / "second.json", capsys=capsys)
        assert len(counted_parses) == 2
        assert second[0] == 0 and second[2] != first[2]
        assert second == self.evaluate(synth_dir, vocab, tmp_path / "fresh.json", fresh=True)

    @pytest.mark.parametrize("bad_text", ['{"patterns": [', '{"patterns": [%s, %s]}'],
                             ids=["broken_json", "duplicate_id"])
    @pytest.mark.parametrize("order", [("bad", "good", "bad"), ("good", "bad", "good")],
                             ids=["bad_first", "good_first"])
    def test_bad_and_good_vocab_as_in_fresh_processes(self, tmp_path, vocab_file, synth_dir,
                                                      capsys, counted_parses, order, bad_text):
        record = json.dumps(json.loads(Path(vocab_file).read_text())["patterns"][0])
        bad = tmp_path / "bad.json"
        bad.write_text(bad_text.replace("%s", record))
        files = {"good": Path(vocab_file), "bad": bad}
        for step, which in enumerate(order):
            out = tmp_path / f"{step}_{which}.json"
            code, err, data = self.evaluate(synth_dir, files[which], out, capsys=capsys)
            fresh = self.evaluate(synth_dir, files[which], tmp_path / f"{step}_fresh.json",
                                  fresh=True)
            assert (code, err, data) == fresh
            assert (code == 0) == (which == "good")
            assert code == 0 or err.startswith("error: ") and err.count("\n") == 1
        # a failed parse is not kept, so the bad file is parsed at each use
        assert len(counted_parses) == (3 if order[0] == "bad" else 2)

    def test_manifest_jobs_2_matches_jobs_1(self, tmp_path, vocab_file, synth_dir):
        # more distinct texts than the memo keeps, each met twice
        text = Path(vocab_file).read_text()
        vocabs = []
        for i in range(vocabulary._parse.cache_parameters()["maxsize"] + 2):
            vocabs.append(tmp_path / f"v{i}.json")
            vocabs[-1].write_text(text + "\n" * i)
        manifest = self.manifest(tmp_path, synth_dir, [*vocabs, None, *reversed(vocabs)])
        reports = [tmp_path / "jobs_1.json", tmp_path / "jobs_2.json"]
        for jobs, report in enumerate(reports, start=1):
            assert run(["eval", "--manifest", manifest, "--vocab", vocab_file,
                        "--out", report, "--jobs", jobs]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()
        assert len(json.loads(reports[0].read_text())["songs"]) == 2 * len(vocabs) + 1


class TestSharedParser:
    """main parses every call with one parser; no call leaves a trace in it."""

    def decode(self, synth_dir, vocab_file, out, *extra):
        return run(["decode", "--strums", synth_dir / "strums.json",
                    "--barlines", synth_dir / "barlines.json",
                    "--vocab", vocab_file, "--out", out, *extra])

    @pytest.fixture
    def fresh_output(self, tmp_path, vocab_file, synth_dir):
        """A plain decode's output from a newly built parser."""
        cli._parser.cache_clear()
        out = tmp_path / "fresh.json"
        assert self.decode(synth_dir, vocab_file, out) == 0
        return out.read_bytes()

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()

    def test_flag_does_not_leak(self, tmp_path, vocab_file, synth_dir, fresh_output):
        tuned = tmp_path / "tuned.json"
        assert self.decode(synth_dir, vocab_file, tuned, "--timing-sigma", "0.5") == 0
        assert tuned.read_bytes() != fresh_output
        out = tmp_path / "plain.json"
        assert self.decode(synth_dir, vocab_file, out) == 0
        assert out.read_bytes() == fresh_output

    def test_config_does_not_leak(self, tmp_path, vocab_file, synth_dir, fresh_output):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"decoder": {"timing_sigma": 0.5}}))
        tuned = tmp_path / "tuned.json"
        assert self.decode(synth_dir, vocab_file, tuned, "--config", config) == 0
        assert tuned.read_bytes() != fresh_output
        out = tmp_path / "plain.json"
        assert self.decode(synth_dir, vocab_file, out) == 0
        assert out.read_bytes() == fresh_output

    def test_usage_error_does_not_leak(self, tmp_path, vocab_file, synth_dir, fresh_output):
        with pytest.raises(SystemExit) as excinfo:
            self.decode(synth_dir, vocab_file, tmp_path / "bad.json", "--timing-sigma", "x")
        assert excinfo.value.code == 2
        out = tmp_path / "plain.json"
        assert self.decode(synth_dir, vocab_file, out) == 0
        assert out.read_bytes() == fresh_output

    def test_no_argument_accumulates(self):
        # an "append" action or a mutable default would carry values from
        # one parse into the next
        accumulating = (argparse._AppendAction, argparse._AppendConstAction,
                        argparse._ExtendAction)
        immutable = (type(None), bool, int, float, str, tuple)
        parsers = [build_parser()]
        for parser in parsers:
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
                assert not isinstance(action, accumulating), action.option_strings
                assert isinstance(action.default, immutable), action.option_strings
                assert isinstance(action.const, immutable), action.option_strings
            for name, default in parser._defaults.items():
                assert callable(default) or isinstance(default, immutable), name
        assert len(parsers) == 1 + len(REQUIRED)


class TestRenderCommand:
    def test_render_to_file(self, tmp_path, vocab_file, synth_dir):
        out = tmp_path / "sheet.txt"
        # WALTZ's onsets at 1/3 and 2/3 fall between 16th-grid slots
        with pytest.warns(LossyRenderWarning, match="rendered at nearest grid slot"):
            assert run(
                ["render", "--transcription", synth_dir / "transcription.json",
                 "--vocab", vocab_file, "--out", out]
            ) == 0
        text = out.read_text()
        assert text.startswith(("4/4", "3/4")) and text.rstrip().endswith("|")


class TestConfigFile:
    @pytest.mark.parametrize(
        "payload",
        [{"decoder": {"sigma_typo": 1}}, {"barline_tolerance_sec": 0.07}],
        ids=["section_field", "removed_barline_tolerance"],
    )
    def test_unknown_key_rejected(self, tmp_path, vocab_file, synth_dir, payload):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        code = run(
            ["decode", "--strums", synth_dir / "strums.json",
             "--barlines", synth_dir / "barlines.json",
             "--vocab", vocab_file, "--out", tmp_path / "o.json",
             "--config", config]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"decoder": {"timing_sigma": "0.1"}}, "decoder.timing_sigma"),
            ({"decoder": {"timing_sigma": True}}, "decoder.timing_sigma"),
            ({"decoder": {"timing_sigma": int("1" + "0" * 400)}}, "decoder.timing_sigma"),
            ({"barlines": {"lookahead": "3"}}, "barlines.lookahead"),
            ({"barlines": {"lookahead": True}}, "barlines.lookahead"),
            ({"barlines": {"lookahead": 3.0}}, "barlines.lookahead"),
            ({"barlines": {"subdivision_factors": [1, "2"]}}, "barlines.subdivision_factors"),
            ({"barlines": {"subdivision_factors": 2}}, "barlines.subdivision_factors"),
            ({"render": {"use_repeat_symbol": 0}}, "render.use_repeat_symbol"),
            ({"seed": 1.5}, "seed"),
            ({"strum_tolerance_sec": None}, "strum_tolerance_sec"),
        ],
        ids=["float_str", "float_bool", "float_huge", "int_str", "int_bool", "int_float",
             "int_list_item", "int_list_scalar", "bool_int", "top_int", "top_float_null"],
    )
    def test_mistyped_value_names_field(self, tmp_path, capsys, payload, field):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps({"barlines_sec": [0.0, 2.0, 4.0]}))
        out = tmp_path / "o.json"
        assert run(["barlines", "--raw", raw, "--out", out, "--config", config]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert f" {field} " in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, reason",
        [('{"seed": 1\n', "Expecting ',' delimiter: line 2 column 1 (char 11)"),
         ('\ufeff{"seed": 1}', "Unexpected UTF-8 BOM")],
        ids=["truncated", "bom"],
    )
    def test_malformed_json_names_config(self, tmp_path, capsys, text, reason):
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps({"barlines_sec": [0.0, 2.0, 4.0]}))
        out = tmp_path / "o.json"
        assert run(["barlines", "--raw", raw, "--out", out, "--config", config]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: config file {config} is not valid JSON: {reason}")
        assert not out.exists()

    def test_int_accepted_for_float_field(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"decoder": {"timing_sigma": 1}, "strum_tolerance_sec": 0}))
        cfg = cli.load_run_config(str(config))
        assert type(cfg.decoder.timing_sigma) is float and cfg.decoder.timing_sigma == 1.0
        assert type(cfg.strum_tolerance_sec) is float

    @pytest.mark.parametrize(
        "payload",
        [{"seed": 1.5, "decoder": {"timesig_change_penalty": "a", "timing_sigma": "b"}},
         {"decoder": {"timing_sigma": "b", "timesig_change_penalty": "a"}, "seed": 1.5}],
        ids=["file_order_reversed", "file_order_as_fields"],
    )
    def test_first_fault_named_in_field_order(self, tmp_path, payload):
        # RunConfig's field order picks the fault named, whatever the file's
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"^config field decoder\.timing_sigma "):
            cli.load_run_config(str(config))

    def test_config_applies_and_flag_overrides(self, tmp_path, vocab_file, synth_dir):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"decoder": {"pattern_change_penalty": 0.0}}))
        base, overridden = tmp_path / "a.json", tmp_path / "b.json"
        common = ["decode", "--strums", synth_dir / "strums.json",
                  "--barlines", synth_dir / "barlines.json",
                  "--vocab", vocab_file, "--config", config]
        assert run(common + ["--out", base]) == 0
        assert run(common + ["--out", overridden, "--pattern-change-penalty", "2.0"]) == 0
        cost_base = json.loads(base.read_text())["total_cost"]
        cost_over = json.loads(overridden.read_text())["total_cost"]
        assert cost_base <= cost_over

    def test_config_bool_kept_without_flag(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"render": {"use_repeat_symbol": False}}))
        args = build_parser().parse_args(
            ["render", *REQUIRED["render"], "--config", str(config)]
        )
        assert _config_from_args(args).render.use_repeat_symbol is False

    def test_malformed_int_list_names_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["barlines", *REQUIRED["barlines"], "--subdivision-factors", "1,x"])
        assert excinfo.value.code == 2
        assert "--subdivision-factors" in capsys.readouterr().err


# the knobs a NaN must not pass, as (command, flag or None, config field,
# JSON literal); a flag and a config file both reach the field's check
NON_FINITE_KNOBS = [
    ("decode", "--timing-sigma", "decoder.timing_sigma", "NaN"),
    ("decode", "--timing-sigma", "decoder.timing_sigma", "Infinity"),
    ("decode", "--pattern-change-penalty", "decoder.pattern_change_penalty", "NaN"),
    ("decode", "--timesig-change-penalty", "decoder.timesig_change_penalty", "NaN"),
    ("barlines", "--deletion-penalty", "barlines.deletion_penalty", "NaN"),
    ("barlines", "--insertion-penalty", "barlines.insertion_penalty", "NaN"),
    ("barlines", "--tempo-change-penalty", "barlines.tempo_change_penalty", "NaN"),
    ("onsets", "--delta", "onsets.delta", "NaN"),
    ("onsets", "--min-gap", "onsets.min_gap_sec", "NaN"),
    ("onsets", None, "onsets.log_compression", "NaN"),
]
NON_FINITE_CASES = [
    (command, spelling, flag, field, literal)
    for command, flag, field, literal in NON_FINITE_KNOBS
    for spelling in ("flag", "config")
    if flag or spelling == "config"
]


@pytest.mark.parametrize(
    "command,spelling,flag,field,literal", NON_FINITE_CASES,
    ids=[f"{c[1]}-{c[3]}={c[4]}" for c in NON_FINITE_CASES],
)
def test_non_finite_knob_exit_1(tmp_path, capsys, command, spelling, flag, field, literal):
    section, name = field.split(".")
    if spelling == "flag":
        extra = [flag, {"NaN": "nan", "Infinity": "inf"}[literal]]
    else:
        # Python's json reads the NaN and Infinity literals
        config = tmp_path / "config.json"
        config.write_text(f'{{"{section}": {{"{name}": {literal}}}}}')
        extra = ["--config", config]
    # the config is checked before any input is read, so none needs to exist
    argv = [command, *REQUIRED[command], *extra]
    argv[argv.index("--out") + 1] = tmp_path / "o.json"
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {name} ")
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("sigma", ["1e200", "1e-200"])
def test_timing_sigma_out_of_float_range_exit_1(tmp_path, synth_dir, vocab_file, capsys, sigma):
    # 2 sigma^2 overflows or goes subnormal: the emission costs would be
    # inf / inf or 0 / 0, so the flag is rejected before any decoding
    out = tmp_path / "t.json"
    argv = [*song_argv("decode", synth_dir, vocab_file), "--out", out, "--timing-sigma", sigma]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: timing_sigma is out of range")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--sigma-norm", "--tempo-bpm"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_synth_non_finite_knob_exit_1(tmp_path, vocab_file, capsys, flag, value):
    out = tmp_path / "song"
    assert run(["synth", "--vocab", vocab_file, "--out-dir", out, f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    field = flag[2:].replace("-", "_")
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {field} must be finite")
    assert not out.exists()


def test_infinite_change_penalty_accepted(tmp_path, vocab_file):
    # an infinite penalty forbids every change: a song that needs none
    # decodes as with the default penalty
    strums, bars = tmp_path / "strums.json", tmp_path / "bars.json"
    strums.write_text(json.dumps({"strums_sec": [0.5 * i for i in range(12)]}))
    bars.write_text(json.dumps({"barlines_sec": [0.0, 2.0, 4.0, 6.0]}))
    outs = []
    for extra in ([], ["--pattern-change-penalty", "inf", "--timesig-change-penalty", "inf"]):
        out = tmp_path / f"t{len(outs)}.json"
        assert run(["decode", "--strums", strums, "--barlines", bars, "--vocab", vocab_file,
                    "--out", out, *extra]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert {m["pattern_id"] for m in json.loads(outs[0])["measures"]} == {"QUARTERS"}


def write_wav(path, samples, sr=44100):
    data = (np.clip(samples, -1, 1) * 32767).astype(np.int16)
    from scipy.io import wavfile

    wavfile.write(path, sr, data)


# a valid 1 s, 8 kHz, 16-bit mono WAV: 44 bytes of header, then 16,000 of
# plucks; its size fields are at bytes 4 (RIFF), 16 (fmt) and 40 (data)
MUTATED_WAV_BASE = riff(
    fmt_chunk(rate=8000),
    chunk(b"data", (np.clip(mono_signal(pluck_train([0.1, 0.4, 0.7], sr=8000, tail=0.3)), -1, 1)
                    * 32767).astype("<i2").tobytes()),
)
# MUTATED_WAV_BASE's samples in an RF64 file, whose RIFF and data sizes are
# fields of a ds64 chunk
MUTATED_RF64_BASE = rf64(fmt_chunk(rate=8000), MUTATED_WAV_BASE[44:])
# the header fields of the two files that the pipeline fuzz rewrites: their
# struct format and their offsets in MUTATED_WAV_BASE and MUTATED_RF64_BASE
# (None where the file has no such field)
WAV_FIELDS = {
    "riff_size": ("<I", 4, None),
    "ds64_riff_size": ("<Q", None, 20),
    "ds64_data_size": ("<Q", None, 28),
    "format_tag": ("<H", 20, 56),
    "block_align": ("<H", 32, 68),
    "bits": ("<H", 34, 70),
    "data_size": ("<I", 40, 76),
}
# (kind, field or byte offset, value): header field rewrites, header byte
# flips and cuts
wav_header_mutations = st.one_of(
    st.tuples(st.just("field"), st.sampled_from(sorted(WAV_FIELDS)),
              st.one_of(st.sampled_from([0, 1, 2, 3, 4, 8, 16, 24, 32, 64, 65, 0xFFFE, 15_999,
                                         16_000, 16_001, 2**32 - 1, 2**63, 2**64 - 1]),
                        st.integers(0, 2**64 - 1))),
    st.tuples(st.just("flip"), st.integers(0, 80), st.integers(0, 255)),
    st.tuples(st.just("cut"), st.integers(0, 16_100), st.none()),
)
# (kind, byte offset, value): flips and inserts land in the header half the time
wav_mutations = st.one_of(
    st.tuples(st.just("flip"), st.one_of(st.integers(0, 47), st.integers(0, 16_100)),
              st.integers(0, 255)),
    st.tuples(st.just("cut"), st.integers(0, 16_100), st.none()),
    st.tuples(st.just("size"), st.sampled_from([4, 16, 40]),
              st.one_of(st.sampled_from([0, 1, 15, 16, 17, 18, 40, 15_999, 16_000, 16_001,
                                         2**32 - 1]),
                        st.integers(0, 2**32 - 1))),
    st.tuples(st.just("insert"), st.one_of(st.integers(0, 47), st.integers(0, 16_100)),
              st.binary(min_size=1, max_size=8)),
)


class TestOnsetsAndPipeline:
    def test_onsets_command(self, tmp_path):
        times = np.arange(6) * 0.5 + 0.25
        audio = pluck_train(times.tolist(), seed=2)
        wav = tmp_path / "a.wav"
        write_wav(wav, mono_signal(audio))
        out = tmp_path / "strums.json"
        assert run(["onsets", "--audio", wav, "--out", out]) == 0
        detected = json.loads(out.read_text())["strums_sec"]
        assert len(detected) == 6

    @pytest.mark.parametrize("fault", ["truncated_header", "zero_channels", "below_fmin"])
    def test_unreadable_audio_exit_1(self, tmp_path, capsys, fault):
        wav = tmp_path / "a.wav"
        if fault == "below_fmin":
            # 40 Hz audio has a 20 Hz Nyquist frequency, below the 30 Hz fmin
            write_wav(wav, np.zeros(40 * 200), sr=40)
        else:
            write_wav(wav, np.zeros(4096))
            data = wav.read_bytes()
            if fault == "truncated_header":
                data = data[:30]
            else:
                # the fmt chunk's channel count sits at byte 22
                data = data[:22] + struct.pack("<H", 0) + data[24:]
            wav.write_bytes(data)
        out = tmp_path / "strums.json"
        assert run(["onsets", "--audio", wav, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert ("onsets.fmin_hz" if fault == "below_fmin" else str(wav)) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fault", ["truncated_header", "zero_channels", "no_fmt", "no_data", "uint8", "int64",
                  "rifx", "zero_rate", "nan_float"],
    )
    def test_malformed_wav_exit_1(self, tmp_path, capsys, fault):
        wav = tmp_path / "a.wav"
        samples = np.zeros(4096, "<i2").tobytes()
        if fault == "uint8":
            with wave.open(str(wav), "wb") as fp:
                fp.setnchannels(1)
                fp.setsampwidth(1)
                fp.setframerate(44100)
                fp.writeframes(bytes([128]) * 4096)
        elif fault == "rifx":
            body = (b"WAVE" + b"fmt " + struct.pack(">IHHIIHH", 16, 1, 1, 44100, 88200, 2, 16)
                    + b"data" + struct.pack(">I", len(samples)) + samples)
            wav.write_bytes(b"RIFX" + struct.pack(">I", len(body)) + body)
        else:
            wav.write_bytes({
                "truncated_header": riff(fmt_chunk(), chunk(b"data", samples))[:24],
                "zero_channels": riff(fmt_chunk(channels=0), chunk(b"data", samples)),
                "no_fmt": riff(chunk(b"data", samples)),
                "no_data": riff(fmt_chunk()),
                "int64": riff(fmt_chunk(width=8), chunk(b"data", samples)),
                "zero_rate": riff(fmt_chunk(rate=0), chunk(b"data", samples)),
                "nan_float": riff(fmt_chunk(3, width=4),
                                  chunk(b"data", np.full(2048, np.nan, "<f4").tobytes())),
            }[fault])
        out = tmp_path / "strums.json"
        assert run(["onsets", "--audio", wav, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert str(wav) in err
        assert not out.exists()

    @settings(max_examples=200, deadline=None)
    @given(mutations=st.lists(wav_mutations, min_size=1, max_size=4))
    @example(mutations=[("cut", 30, None)])
    def test_mutated_wav_exits_0_or_1(self, tmp_path_factory, mutations):
        # byte flips, cuts, size-field rewrites and inserts on a valid 1 s,
        # 8 kHz, 16-bit file: onsets succeeds or ends with one error line
        wav = bytearray(MUTATED_WAV_BASE)
        for kind, at, value in mutations:
            at %= len(wav) + 1
            if kind == "flip" and at < len(wav):
                wav[at] = value
            elif kind == "cut":
                del wav[at:]
            elif kind == "size":
                wav[at : at + 4] = struct.pack("<I", value)
            elif kind == "insert":
                wav[at:at] = value
        folder = tmp_path_factory.mktemp("mutated")
        path, out = folder / "a.wav", folder / "strums.json"
        path.write_bytes(wav)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(["onsets", "--audio", path, "--out", out])
        assert code in (0, 1)
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
            assert "Traceback" not in err.getvalue()
            assert not out.exists()

    @settings(max_examples=300, deadline=None)
    @given(rf64_file=st.booleans(), wav_edits=st.lists(wav_header_mutations, max_size=3),
           which=st.sampled_from(["raw_barlines", "vocab"]),
           json_edits=st.lists(json_mutations, max_size=2))
    def test_mutated_pipeline_inputs_exit_0_1_or_2(self, tmp_path_factory, rf64_file, wav_edits,
                                                   which, json_edits):
        # the WAV's header and the JSON inputs mutated: pipeline succeeds,
        # or ends with one error line, no traceback and no output
        wav = bytearray(MUTATED_RF64_BASE if rf64_file else MUTATED_WAV_BASE)
        for kind, at, value in wav_edits:
            if kind == "field":
                form, *offsets = WAV_FIELDS[at]
                offset = offsets[rf64_file]
                if offset is not None and offset < len(wav):
                    size = struct.calcsize(form)
                    wav[offset : offset + size] = struct.pack(form, value % (1 << 8 * size))
            elif kind == "flip" and at < len(wav):
                wav[at] = value
            elif kind == "cut":
                del wav[at:]
        folder = tmp_path_factory.mktemp("pipeline")
        (folder / "audio.wav").write_bytes(wav)
        for name, text in (("raw_barlines", DECODE_BASE["barlines"]),
                           ("vocab", DECODE_BASE["vocab"])):
            payload = mutate_json(text, json_edits) if name == which else text.encode()
            (folder / f"{name}.json").write_bytes(payload)
        out, dump = folder / "out.json", folder / "dump"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(["pipeline", "--audio", folder / "audio.wav",
                        "--raw-barlines", folder / "raw_barlines.json",
                        "--vocab", folder / "vocab.json", "--out", out, "--dump-dir", dump])
        assert code in (0, 1, 2)
        if code:
            # decode prints a note before render, which may still fail
            lines = err.getvalue().splitlines()
            errors = [line for line in lines if line.startswith("error:")]
            assert lines and errors == lines[-1:], lines
            assert "Traceback" not in err.getvalue()
            assert not out.exists() and not dump.exists()

    def test_file_cut_after_loading_exit_1(self, tmp_path, capsys, monkeypatch):
        # the samples are read from the file as the envelope reaches them,
        # so a file cut to its header after loading fails then, as bad input
        wav, out = tmp_path / "a.wav", tmp_path / "strums.json"
        write_wav(wav, mono_signal(pluck_train([0.25, 0.75], seed=2)))
        load_wav = cli.onsets_mod.load_wav

        def load_then_cut(path):
            audio = load_wav(path)
            os.truncate(path, 44)
            return audio

        monkeypatch.setattr(cli.onsets_mod, "load_wav", load_then_cut)
        assert run(["onsets", "--audio", wav, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot read WAV file {str(wav)!r}: ")
        assert not out.exists()

    def test_runtime_imports_no_scipy(self, tmp_path):
        # the CLI must start and read a WAV file with numpy and the standard
        # library alone; a fresh interpreter shows what it imported
        wav, out = tmp_path / "a.wav", tmp_path / "strums.json"
        audio = pluck_train([0.25, 0.75, 1.25], seed=2)
        with wave.open(str(wav), "wb") as fp:
            fp.setnchannels(1)
            fp.setsampwidth(2)
            fp.setframerate(audio.sample_rate)
            fp.writeframes((np.clip(mono_signal(audio), -1, 1) * 32767).astype("<i2").tobytes())
        script = (
            "import sys\n"
            "import strumscribe.cli as cli\n"
            f"assert cli.main(['onsets', '--audio', {str(wav)!r}, '--out', {str(out)!r}]) == 0\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, loaded\n"
        )
        result = fresh_python(script)
        assert result.returncode == 0, result.stderr
        assert len(json.loads(out.read_text())["strums_sec"]) == 3

    def test_pipeline_recovers_known_pattern(self, tmp_path, capsys):
        # quarter-note strums at 120 bpm, 8 measures of 2 s each
        vocab = make_vocab(("QUARTERS", "4/4", [0.0, 0.25, 0.5, 0.75]),
                           ("HALVES", "4/4", [0.0, 0.5]))
        vocab_path = tmp_path / "vocab.json"
        vocab_path.write_text(json.dumps(vocab_payload(vocab)))
        bars = [2.0 * i for i in range(9)]
        times = [m + 0.5 * b for m in bars[:-1] for b in range(4)]
        audio = pluck_train(times, seed=4, tail=0.6)
        wav = tmp_path / "song.wav"
        write_wav(wav, mono_signal(audio))
        raw_bars = tmp_path / "raw_bars.json"
        # corrupt the bar-line track with one spurious line
        raw_bars.write_text(json.dumps({"barlines_sec": bars[:3] + [5.0] + bars[3:]}))
        out = tmp_path / "t.json"
        text_out = tmp_path / "sheet.txt"
        dump = tmp_path / "dump"
        assert run(
            ["pipeline", "--audio", wav, "--raw-barlines", raw_bars,
             "--vocab", vocab_path, "--out", out, "--out-text", text_out,
             "--dump-dir", dump]
        ) == 0
        result = json.loads(out.read_text())
        assert [m["pattern_id"] for m in result["measures"]] == ["QUARTERS"] * 8
        assert (dump / "barlines.json").exists()
        assert json.loads((dump / "barlines.json").read_text())["barlines_sec"] == bars
        sheet = text_out.read_text()
        assert "%" in sheet

    def test_pipeline_silence_gives_empty_patterns(self, tmp_path):
        vocab = make_vocab(("A", "4/4", [0.0, 0.5]))
        vocab_path = tmp_path / "vocab.json"
        vocab_path.write_text(json.dumps(vocab_payload(vocab)))
        wav = tmp_path / "silence.wav"
        write_wav(wav, np.zeros(44100 * 4))
        raw_bars = tmp_path / "bars.json"
        raw_bars.write_text(json.dumps({"barlines_sec": [0.0, 2.0, 4.0]}))
        out = tmp_path / "t.json"
        assert run(
            ["pipeline", "--audio", wav, "--raw-barlines", raw_bars,
             "--vocab", vocab_path, "--out", out]
        ) == 0
        result = json.loads(out.read_text())
        assert [m["pattern_id"] for m in result["measures"]] == ["EMPTY_4_4"] * 2

    def test_pipeline_missing_audio_exit_2(self, tmp_path, vocab_file):
        raw_bars = tmp_path / "bars.json"
        raw_bars.write_text(json.dumps({"barlines_sec": [0.0, 2.0]}))
        code = run(
            ["pipeline", "--audio", tmp_path / "missing.wav",
             "--raw-barlines", raw_bars, "--vocab", vocab_file,
             "--out", tmp_path / "o.json"]
        )
        assert code == 2

    def test_pipeline_composes_from_individual_commands(self, tmp_path):
        vocab = make_vocab(("QUARTERS", "4/4", [0.0, 0.25, 0.5, 0.75]))
        vocab_path = tmp_path / "vocab.json"
        vocab_path.write_text(json.dumps(vocab_payload(vocab)))
        bars = [2.0 * i for i in range(5)]
        times = [m + 0.5 * b for m in bars[:-1] for b in range(4)]
        wav = tmp_path / "song.wav"
        write_wav(wav, mono_signal(pluck_train(times, seed=9, tail=0.6)))
        raw_bars = tmp_path / "raw.json"
        raw_bars.write_text(json.dumps({"barlines_sec": bars[:2] + [3.0] + bars[2:]}))

        piped = tmp_path / "piped.json"
        dump = tmp_path / "dump"
        assert run(
            ["pipeline", "--audio", wav, "--raw-barlines", raw_bars,
             "--vocab", vocab_path, "--out", piped, "--dump-dir", dump]
        ) == 0
        chained = tmp_path / "chained.json"
        strums, clean = tmp_path / "strums.json", tmp_path / "clean.json"
        assert run(["onsets", "--audio", wav, "--out", strums]) == 0
        assert run(["barlines", "--raw", raw_bars, "--out", clean]) == 0
        assert run(
            ["decode", "--strums", strums, "--barlines", clean,
             "--vocab", vocab_path, "--out", chained]
        ) == 0
        assert piped.read_bytes() == chained.read_bytes()


@pytest.fixture
def silent_song(tmp_path):
    """(wav, raw bar lines, vocab) of a 2-measure silent song."""
    vocab = tmp_path / "vocab.json"
    vocab.write_text(json.dumps(vocab_payload(make_vocab(("A", "4/4", [0.0, 0.5])))))
    wav = tmp_path / "silence.wav"
    write_wav(wav, np.zeros(44100 * 4))
    raw_bars = tmp_path / "bars.json"
    raw_bars.write_text(json.dumps({"barlines_sec": [0.0, 2.0, 4.0]}))
    return wav, raw_bars, vocab


class TestAtomicOutputs:
    """A command writes its output files only when every stage and every
    write succeeds; a failure leaves the old files as they were."""

    def pipeline(self, song, out, *extra):
        wav, raw_bars, vocab = song
        return run(["pipeline", "--audio", wav, "--raw-barlines", raw_bars,
                    "--vocab", vocab, "--out", out, *extra])

    def test_missing_text_dir_writes_nothing(self, tmp_path, silent_song, capsys):
        out, dump = tmp_path / "t.json", tmp_path / "dump"
        code = self.pipeline(silent_song, out, "--out-text", tmp_path / "missing_dir" / "x.txt",
                             "--dump-dir", dump)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
            f"error: [Errno 2] No such file or directory: '{tmp_path / 'missing_dir' / 'x.txt'}'"
        ]
        assert not out.exists() and not (dump / "transcription.json").exists()
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]

    def test_failed_pipeline_removes_created_dump_dirs(self, tmp_path, silent_song):
        # the run creates new/inner inside an existing directory; on failure
        # it removes both again and keeps the directory that was there
        (tmp_path / "kept").mkdir()
        dump = tmp_path / "kept" / "new" / "inner"
        code = self.pipeline(silent_song, tmp_path / "t.json", "--out-text",
                             tmp_path / "missing_dir" / "x.txt", "--dump-dir", dump)
        assert code == 2
        assert os.listdir(tmp_path / "kept") == []

    def test_failed_synth_removes_created_out_dir(self, tmp_path, vocab_file, monkeypatch,
                                                  capsys):
        def full_disk(src, dst):
            raise OSError(28, "No space left on device", str(dst))

        monkeypatch.setattr(os, "replace", full_disk)
        out_dir = tmp_path / "new" / "dir"
        assert run(["synth", "--vocab", vocab_file, "--out-dir", out_dir, "--measures", 4]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 28] No space left on device")
        assert not (tmp_path / "new").exists()

    def test_failed_run_keeps_old_output(self, tmp_path, silent_song):
        out = tmp_path / "t.json"
        out.write_bytes(b"old")
        assert self.pipeline(silent_song, out, "--out-text", tmp_path / "no" / "x.txt") == 2
        assert out.read_bytes() == b"old"
        # the same run with a writable text path replaces it
        assert self.pipeline(silent_song, out, "--out-text", tmp_path / "x.txt") == 0
        assert json.loads(out.read_text())["measures"]

    def test_synth_blocked_output_writes_none(self, tmp_path, vocab_file, capsys):
        out_dir = tmp_path / "song"
        (out_dir / "ground_truth.json").mkdir(parents=True)
        assert run(["synth", "--vocab", vocab_file, "--out-dir", out_dir, "--measures", 4]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: [Errno 21] Is a directory: '{out_dir / 'ground_truth.json'}'"
        ]
        assert sorted(os.listdir(out_dir)) == ["ground_truth.json"]

    def test_new_file_mode_follows_umask(self, tmp_path, silent_song):
        # the mode open(path, "w") gives a new file, not a temp file's 0o600
        out = tmp_path / "t.json"
        old = os.umask(0o027)
        try:
            assert self.pipeline(silent_song, out) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o666 & ~0o027

    def test_existing_file_keeps_mode(self, tmp_path, silent_song):
        out = tmp_path / "t.json"
        out.write_bytes(b"old")
        out.chmod(0o600)
        assert self.pipeline(silent_song, out) == 0
        assert out.stat().st_mode & 0o777 == 0o600
        assert json.loads(out.read_text())["measures"]

    def test_symlink_written_through(self, tmp_path, silent_song):
        target, link = tmp_path / "real.json", tmp_path / "link.json"
        target.write_bytes(b"old")
        link.symlink_to(target)
        assert self.pipeline(silent_song, link) == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())["measures"]

    def test_device_written_in_place(self, silent_song):
        assert self.pipeline(silent_song, os.devnull) == 0


class TestDecodeGoldenCases:
    def test_single_signature_song_exact(self, tmp_path):
        vocab = make_vocab(
            ("QUARTERS", "4/4", [0.0, 0.25, 0.5, 0.75]),
            ("HALVES", "4/4", [0.0, 0.5]),
        )
        vocab_path = tmp_path / "vocab.json"
        vocab_path.write_text(json.dumps(vocab_payload(vocab)))
        song_dir = tmp_path / "song"
        assert run(
            ["synth", "--vocab", vocab_path, "--out-dir", song_dir,
             "--measures", 10, "--switch-prob", "0.4", "--seed", 11]
        ) == 0
        out = tmp_path / "decoded.json"
        assert run(
            ["decode", "--strums", song_dir / "strums.json",
             "--barlines", song_dir / "barlines.json",
             "--vocab", vocab_path, "--out", out]
        ) == 0
        decoded = json.loads(out.read_text())
        truth = json.loads((song_dir / "transcription.json").read_text())
        assert decoded["measures"] == truth["measures"]

    def test_empty_song_all_empty_patterns(self, tmp_path):
        vocab = make_vocab(("A", "4/4", [0.0, 0.5]))
        vocab_path = tmp_path / "vocab.json"
        vocab_path.write_text(json.dumps(vocab_payload(vocab)))
        strums = tmp_path / "strums.json"
        strums.write_text(json.dumps({"strums_sec": []}))
        bars = tmp_path / "bars.json"
        bars.write_text(json.dumps({"barlines_sec": [0.0, 2.0, 4.0, 6.0]}))
        out = tmp_path / "decoded.json"
        assert run(
            ["decode", "--strums", strums, "--barlines", bars,
             "--vocab", vocab_path, "--out", out]
        ) == 0
        decoded = json.loads(out.read_text())
        assert [m["pattern_id"] for m in decoded["measures"]] == ["EMPTY_4_4"] * 3
        assert decoded["total_cost"] == 0.0


# (subcommand, flag, parsed value, RunConfig field); switches take no value
FLAG_CASES = [
    ("decode", "--timing-sigma", 0.1, "decoder.timing_sigma"),
    ("decode", "--pattern-change-penalty", 3.5, "decoder.pattern_change_penalty"),
    ("decode", "--timesig-change-penalty", 1.5, "decoder.timesig_change_penalty"),
    ("barlines", "--subdivision-factors", (1, 2), "barlines.subdivision_factors"),
    ("barlines", "--deletion-penalty", 2.5, "barlines.deletion_penalty"),
    ("barlines", "--insertion-penalty", 0.5, "barlines.insertion_penalty"),
    ("barlines", "--tempo-change-penalty", 4.0, "barlines.tempo_change_penalty"),
    ("barlines", "--snap-tolerance", 0.02, "barlines.snap_tolerance_sec"),
    ("barlines", "--lookahead", 6, "barlines.lookahead"),
    ("onsets", "--frame-size", 4096, "onsets.frame_size"),
    ("onsets", "--hop-size", 256, "onsets.hop_size"),
    ("onsets", "--n-mels", 64, "onsets.n_mels"),
    ("onsets", "--fmin", 40.0, "onsets.fmin_hz"),
    ("onsets", "--fmax", 8000.0, "onsets.fmax_hz"),
    ("onsets", "--delta", 5.0, "onsets.delta"),
    ("onsets", "--pre-max", 2, "onsets.pre_max"),
    ("onsets", "--post-max", 4, "onsets.post_max"),
    ("onsets", "--pre-avg", 6, "onsets.pre_avg"),
    ("onsets", "--post-avg", 10, "onsets.post_avg"),
    ("onsets", "--min-gap", 0.08, "onsets.min_gap_sec"),
    ("render", "--no-repeat-symbol", False, "render.use_repeat_symbol"),
    ("render", "--grid-resolution", 12, "render.grid_resolution"),
    ("render", "--show-pattern-ids", True, "render.show_pattern_ids"),
]
# pipeline takes the tuning flags of decode, barlines, onsets and render
FLAG_CASES += [("pipeline", *case[1:]) for case in FLAG_CASES]
FLAG_CASES += [("eval", "--tolerance", 0.1, "strum_tolerance_sec")]
FLAG_CASES += [("synth", "--seed", 9, "seed")]


def with_field(cfg, dotted, value):
    """A copy of cfg with the (dotted) field set to value."""
    head, _, rest = dotted.partition(".")
    if rest:
        value = with_field(getattr(cfg, head), rest, value)
    return dataclasses.replace(cfg, **{head: value})


@pytest.mark.parametrize(
    "command,flag,value,field", FLAG_CASES, ids=[f"{c[0]}{c[1]}" for c in FLAG_CASES]
)
def test_flag_sets_config_field(command, flag, value, field):
    if isinstance(value, bool):
        argv = [flag]
    elif isinstance(value, tuple):
        argv = [flag, ",".join(map(str, value))]
    else:
        argv = [flag, str(value)]
    expected = with_field(RunConfig(), field, value)
    assert expected != RunConfig()
    args = build_parser().parse_args([command, *REQUIRED[command], *argv])
    assert _config_from_args(args) == expected


@pytest.mark.parametrize("command", [c for c in REQUIRED if c != "synth"])
def test_seed_only_on_synth(command, capsys):
    # only synth draws random numbers; the config file's seed key stays
    # valid for every subcommand
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([command, *REQUIRED[command], "--seed", "9"])
    assert excinfo.value.code == 2
    assert "--seed" in capsys.readouterr().err
