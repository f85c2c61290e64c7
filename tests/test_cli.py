import dataclasses
import json
import os
import struct
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

from strumscribe import cli
from strumscribe.cli import RunConfig, _config_from_args, build_parser, main

from conftest import make_vocab
from test_onsets import chunk, fmt_chunk, pluck_train, riff


@pytest.fixture
def vocab_file(tmp_path, basic_vocab):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps(basic_vocab.to_dict()))
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


    @pytest.mark.parametrize(
        "literal",
        ["null", "1" + "0" * 400, '"0.0"', "false", "true"],
        ids=["null", "huge_int", "string", "false", "true"],
    )
    def test_mistyped_vocab_onset_exit_1(
        self, tmp_path, basic_vocab, synth_dir, capsys, literal
    ):
        payload = basic_vocab.to_dict()
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
        payload = basic_vocab.to_dict()
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

    def test_manifest_parallel_matches_serial(self, tmp_path, vocab_file):
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
        serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
        assert run(
            ["eval", "--manifest", manifest, "--vocab", vocab_file, "--out", serial,
             "--jobs", 1]
        ) == 0
        assert run(
            ["eval", "--manifest", manifest, "--vocab", vocab_file, "--out", parallel,
             "--jobs", 2]
        ) == 0
        assert serial.read_bytes() == parallel.read_bytes()

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


class TestRenderCommand:
    def test_render_to_file(self, tmp_path, vocab_file, synth_dir):
        out = tmp_path / "sheet.txt"
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

    def test_int_accepted_for_float_field(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"decoder": {"timing_sigma": 1}, "strum_tolerance_sec": 0}))
        cfg = cli.load_run_config(str(config))
        assert type(cfg.decoder.timing_sigma) is float and cfg.decoder.timing_sigma == 1.0
        assert type(cfg.strum_tolerance_sec) is float

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


def write_wav(path, samples, sr=44100):
    data = (np.clip(samples, -1, 1) * 32767).astype(np.int16)
    from scipy.io import wavfile

    wavfile.write(path, sr, data)


class TestOnsetsAndPipeline:
    def test_onsets_command(self, tmp_path):
        times = np.arange(6) * 0.5 + 0.25
        audio = pluck_train(times.tolist(), seed=2)
        wav = tmp_path / "a.wav"
        write_wav(wav, audio.samples)
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

    def test_runtime_imports_no_scipy(self, tmp_path):
        # the CLI must start and read a WAV file with numpy and the standard
        # library alone; a fresh interpreter shows what it imported
        wav, out = tmp_path / "a.wav", tmp_path / "strums.json"
        audio = pluck_train([0.25, 0.75, 1.25], seed=2)
        with wave.open(str(wav), "wb") as fp:
            fp.setnchannels(1)
            fp.setsampwidth(2)
            fp.setframerate(audio.sample_rate)
            fp.writeframes((np.clip(audio.samples, -1, 1) * 32767).astype("<i2").tobytes())
        script = (
            "import sys\n"
            "import strumscribe.cli as cli\n"
            f"assert cli.main(['onsets', '--audio', {str(wav)!r}, '--out', {str(out)!r}]) == 0\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert len(json.loads(out.read_text())["strums_sec"]) == 3

    def test_pipeline_recovers_known_pattern(self, tmp_path, capsys):
        # quarter-note strums at 120 bpm, 8 measures of 2 s each
        vocab = make_vocab(("QUARTERS", "4/4", [0.0, 0.25, 0.5, 0.75]),
                           ("HALVES", "4/4", [0.0, 0.5]))
        vocab_path = tmp_path / "vocab.json"
        vocab_path.write_text(json.dumps(vocab.to_dict()))
        bars = [2.0 * i for i in range(9)]
        times = [m + 0.5 * b for m in bars[:-1] for b in range(4)]
        audio = pluck_train(times, seed=4, tail=0.6)
        wav = tmp_path / "song.wav"
        write_wav(wav, audio.samples)
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
        vocab_path.write_text(json.dumps(vocab.to_dict()))
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
        vocab_path.write_text(json.dumps(vocab.to_dict()))
        bars = [2.0 * i for i in range(5)]
        times = [m + 0.5 * b for m in bars[:-1] for b in range(4)]
        wav = tmp_path / "song.wav"
        write_wav(wav, pluck_train(times, seed=9, tail=0.6).samples)
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


class TestDecodeGoldenCases:
    def test_single_signature_song_exact(self, tmp_path):
        vocab = make_vocab(
            ("QUARTERS", "4/4", [0.0, 0.25, 0.5, 0.75]),
            ("HALVES", "4/4", [0.0, 0.5]),
        )
        vocab_path = tmp_path / "vocab.json"
        vocab_path.write_text(json.dumps(vocab.to_dict()))
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
        vocab_path.write_text(json.dumps(vocab.to_dict()))
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
FLAG_CASES += [(command, "--seed", 9, "seed") for command in REQUIRED]


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
