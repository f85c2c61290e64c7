"""Command-line entry point wiring the library into pipelines.

Subcommands: onsets, barlines, decode, eval, synth, render, pipeline.
Configuration comes from defaults, then an optional JSON config file
(unknown keys are hard errors), then explicit flags. Exit codes: 0 success,
1 validation or decoding failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import barlines as barlines_mod
from . import decoder as decoder_mod
from . import metrics as metrics_mod
from . import onsets as onsets_mod
from . import render as render_mod
from . import synth as synth_mod
from . import timeline
from .likelihood import DecoderConfig
from .vocabulary import Vocabulary, load_vocabulary


@dataclass(frozen=True)
class RunConfig:
    decoder: DecoderConfig = DecoderConfig()
    barlines: barlines_mod.PostprocConfig = barlines_mod.PostprocConfig()
    onsets: onsets_mod.OnsetConfig = onsets_mod.OnsetConfig()
    render: render_mod.RenderOptions = render_mod.RenderOptions()
    strum_tolerance_sec: float = 0.05
    seed: int = 0


_SECTIONS = {
    "decoder": DecoderConfig,
    "barlines": barlines_mod.PostprocConfig,
    "onsets": onsets_mod.OnsetConfig,
    "render": render_mod.RenderOptions,
}
_SCALARS = ("strum_tolerance_sec", "seed")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _typed(name: str, value, default):
    """A config value checked against the type of its field's default: a
    float field takes a JSON int or float, an int field an int, a bool field
    a bool, and subdivision_factors a list of ints. JSON booleans are never
    numbers. Raises ValueError naming the field."""
    if isinstance(default, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok, kind = _is_int(value), "an integer"
    elif isinstance(default, float):
        ok, kind = _is_int(value) or isinstance(value, float), "a number"
    else:
        ok, kind = isinstance(value, list) and all(map(_is_int, value)), "a list of integers"
    if not ok:
        raise ValueError(f"config field {name} must be {kind}, got {json.dumps(value)}")
    if isinstance(default, float):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"config field {name} is out of range") from None
    return tuple(value) if isinstance(default, tuple) else value


def _defaults(cls) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls)}


def load_run_config(path: str) -> RunConfig:
    """Parse a JSON config file, rejecting any unknown key or mistyped value."""
    with open(path, encoding="utf-8") as fp:
        payload = json.load(fp)
    if not isinstance(payload, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(payload) - set(_SECTIONS) - set(_SCALARS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for section, cls in _SECTIONS.items():
        overrides = payload.get(section, {})
        if not isinstance(overrides, dict):
            raise ValueError(f"config section {section!r} must be an object")
        defaults = _defaults(cls)
        bad = set(overrides) - set(defaults)
        if bad:
            raise ValueError(f"unknown keys in config section {section!r}: {sorted(bad)}")
        kwargs[section] = cls(
            **{
                field: _typed(f"{section}.{field}", value, defaults[field])
                for field, value in overrides.items()
            }
        )
    defaults = _defaults(RunConfig)
    for key in _SCALARS:
        if key in payload:
            kwargs[key] = _typed(key, payload[key], defaults[key])
    return RunConfig(**kwargs)


# Every tuning flag: {config section: {field: flag}}. A flag parses like its
# field's default: a bool flag sets the opposite of the default, a tuple
# takes comma-separated ints, anything else takes the default's type. Fields
# missing here (onsets.log_compression) are config-file only.
_FLAGS = {
    "decoder": {
        "timing_sigma": "--timing-sigma",
        "pattern_change_penalty": "--pattern-change-penalty",
        "timesig_change_penalty": "--timesig-change-penalty",
    },
    "barlines": {
        "subdivision_factors": "--subdivision-factors",
        "deletion_penalty": "--deletion-penalty",
        "insertion_penalty": "--insertion-penalty",
        "tempo_change_penalty": "--tempo-change-penalty",
        "snap_tolerance_sec": "--snap-tolerance",
        "lookahead": "--lookahead",
    },
    "onsets": {
        "frame_size": "--frame-size",
        "hop_size": "--hop-size",
        "n_mels": "--n-mels",
        "fmin_hz": "--fmin",
        "fmax_hz": "--fmax",
        "delta": "--delta",
        "pre_max": "--pre-max",
        "post_max": "--post-max",
        "pre_avg": "--pre-avg",
        "post_avg": "--post-avg",
        "min_gap_sec": "--min-gap",
    },
    "render": {
        "use_repeat_symbol": "--no-repeat-symbol",
        "grid_resolution": "--grid-resolution",
        "show_pattern_ids": "--show-pattern-ids",
    },
}


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(item) for item in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _add_common(parser: argparse.ArgumentParser, *sections: str) -> None:
    """Add --config, --seed and the tuning flags of the named config sections."""
    parser.add_argument("--config", help="JSON config file; unknown keys are errors")
    parser.add_argument("--seed", type=int, help="RNG seed")
    for section in sections:
        defaults = _defaults(_SECTIONS[section])
        for field, flag in _FLAGS[section].items():
            default = defaults[field]
            if isinstance(default, bool):
                parser.add_argument(flag, action="store_const", const=not default)
            elif isinstance(default, tuple):
                parser.add_argument(flag, type=_int_tuple,
                                    help="comma-separated, e.g. " + ",".join(map(str, default)))
            else:
                parser.add_argument(flag, type=type(default))


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    changes: dict = {}
    for section, flags in _FLAGS.items():
        overrides = {
            field: getattr(args, _dest(flag))
            for field, flag in flags.items()
            if getattr(args, _dest(flag), None) is not None
        }
        if overrides:
            changes[section] = dataclasses.replace(getattr(cfg, section), **overrides)
    if args.seed is not None:
        changes["seed"] = args.seed
    if getattr(args, "tolerance", None) is not None:
        changes["strum_tolerance_sec"] = args.tolerance
    return dataclasses.replace(cfg, **changes)


def _read_vocab(path: str) -> Vocabulary:
    with open(path, encoding="utf-8") as fp:
        return load_vocabulary(fp)


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")


def cmd_onsets(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    audio = onsets_mod.load_wav(args.audio)
    strums = onsets_mod.detect_onsets(audio, cfg.onsets)
    with open(args.out, "w", encoding="utf-8") as fp:
        timeline.save_strums(strums, fp)
    print(f"detected {len(strums)} onsets", file=sys.stderr)
    return 0


def cmd_barlines(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    with open(args.raw, "rb") as fp:
        raw_bytes = fp.read()
    raw = timeline.load_barlines(io.BytesIO(raw_bytes))
    if args.no_barline_postproc:
        with open(args.out, "wb") as out:
            out.write(raw_bytes)
        return 0
    cleaned = barlines_mod.postprocess_barlines(raw, cfg.barlines)
    with open(args.out, "w", encoding="utf-8") as fp:
        timeline.save_barlines(cleaned, fp)
    return 0


def _decode_files(strums_path: str, barlines_path: str, vocab: Vocabulary, cfg: RunConfig):
    with open(strums_path, encoding="utf-8") as fp:
        strums = timeline.load_strums(fp)
    with open(barlines_path, encoding="utf-8") as fp:
        bars = timeline.load_barlines(fp)
    measures, discarded = timeline.bin_strums(strums, bars)
    transcription = decoder_mod.decode(measures, vocab, cfg.decoder)
    return transcription, bars, discarded


def cmd_decode(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    vocab = _read_vocab(args.vocab)
    transcription, _, discarded = _decode_files(args.strums, args.barlines, vocab, cfg)
    with open(args.out, "w", encoding="utf-8") as fp:
        decoder_mod.save_transcription(transcription, fp)
    print(f"discarded {discarded} out-of-range strums", file=sys.stderr)
    return 0


def _eval_one(
    record: dict, base_dir: Path, fallback_vocab: str | None, tolerance: float
) -> tuple[str, metrics_mod.TranscriptionReport]:
    def resolve(key: str) -> str:
        try:
            return str((base_dir / record[key]).resolve())
        except KeyError:
            raise ValueError(f"manifest record missing {key!r}") from None
        except TypeError:
            raise ValueError(f"manifest record {key!r} must be a path string") from None

    vocab_path = resolve("vocab") if "vocab" in record else fallback_vocab
    if not vocab_path:
        raise ValueError("manifest record has no vocab and no --vocab fallback was given")
    vocab = _read_vocab(vocab_path)
    with open(resolve("transcription"), encoding="utf-8") as fp:
        transcription = decoder_mod.load_transcription(fp)
    with open(resolve("barlines"), encoding="utf-8") as fp:
        bars = timeline.load_barlines(fp)
    with open(resolve("ground_truth"), encoding="utf-8") as fp:
        ground_truth = timeline.load_strums(fp)
    report = metrics_mod.evaluate_transcription(transcription, bars, vocab, ground_truth, tolerance)
    return record.get("song_id", "?"), report


def _read_manifest(path: str) -> list[tuple[int, dict]]:
    """The manifest's (line number, record) pairs, skipping blank lines."""
    records = []
    with open(path, encoding="utf-8") as fp:
        for line_no, line in enumerate(fp, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"manifest line {line_no}: {exc}") from None
            if not isinstance(record, dict):
                raise ValueError(f"manifest line {line_no}: a record must be a JSON object")
            records.append((line_no, record))
    return records


def _eval_record(
    numbered: tuple[int, dict], base_dir: Path, fallback_vocab: str | None, tolerance: float
) -> tuple[str, metrics_mod.TranscriptionReport]:
    """_eval_one on a manifest record. An error names the record's song_id,
    or its manifest line when it has none, and keeps its exit code: OSError
    stays OSError, bad content becomes ValueError."""
    line_no, record = numbered
    label = f"song_id {record['song_id']!r}" if "song_id" in record else f"manifest line {line_no}"
    try:
        return _eval_one(record, base_dir, fallback_vocab, tolerance)
    except OSError as exc:
        raise OSError(f"{label}: {exc}") from None
    except (ValueError, KeyError) as exc:
        raise ValueError(f"{label}: {exc}") from None


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    tolerance = cfg.strum_tolerance_sec
    if args.manifest:
        base_dir = Path(args.manifest).parent
        records = _read_manifest(args.manifest)
        jobs = min(args.jobs or os.cpu_count() or 1, len(records))
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(
                    pool.map(
                        _eval_record,
                        records,
                        [base_dir] * len(records),
                        [args.vocab] * len(records),
                        [tolerance] * len(records),
                    )
                )
        else:
            results = [_eval_record(record, base_dir, args.vocab, tolerance) for record in records]
    else:
        for required in ("transcription", "barlines", "vocab", "ground_truth"):
            if getattr(args, required) is None:
                raise ValueError(f"eval needs --{required.replace('_', '-')} (or --manifest)")
        record = {
            "song_id": Path(args.transcription).stem,
            "transcription": args.transcription,
            "barlines": args.barlines,
            "ground_truth": args.ground_truth,
        }
        results = [_eval_one(record, Path("."), args.vocab, tolerance)]
    payload = {
        "songs": [{"song_id": song_id, **report.to_dict()} for song_id, report in results],
        "aggregate": metrics_mod.aggregate_reports([report for _, report in results]),
    }
    _write_json(payload, args.out)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    vocab = _read_vocab(args.vocab)
    spec = synth_mod.SynthSpec(
        seed=cfg.seed,
        vocab=vocab,
        measures=args.measures,
        tempo_bpm=args.tempo_bpm,
        sigma_norm=args.sigma_norm,
        switch_prob=args.switch_prob,
        miss_rate=args.miss_rate,
        spurious_rate=args.spurious_rate,
    )
    song = synth_mod.generate_song(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "strums.json", "w", encoding="utf-8") as fp:
        timeline.save_strums(song.observed, fp)
    with open(out_dir / "nominal_strums.json", "w", encoding="utf-8") as fp:
        timeline.save_strums(song.nominal, fp)
    with open(out_dir / "barlines.json", "w", encoding="utf-8") as fp:
        timeline.save_barlines(song.barlines, fp)
    with open(out_dir / "transcription.json", "w", encoding="utf-8") as fp:
        decoder_mod.save_transcription(song.ground_truth, fp)
    bundle = {
        "transcription": song.ground_truth.to_dict(),
        "barlines_sec": list(song.barlines.times_sec),
        "nominal_sec": list(song.nominal.times_sec),
        "observed_sec": list(song.observed.times_sec),
    }
    _write_json(bundle, str(out_dir / "ground_truth.json"))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    vocab = _read_vocab(args.vocab)
    with open(args.transcription, encoding="utf-8") as fp:
        transcription = decoder_mod.load_transcription(fp)
    text = render_mod.render_text(transcription, vocab, cfg.render)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    vocab = _read_vocab(args.vocab)
    audio = onsets_mod.load_wav(args.audio)
    strums = onsets_mod.detect_onsets(audio, cfg.onsets)
    with open(args.raw_barlines, encoding="utf-8") as fp:
        raw_bars = timeline.load_barlines(fp)
    bars = raw_bars if args.no_barline_postproc else barlines_mod.postprocess_barlines(
        raw_bars, cfg.barlines
    )
    measures, discarded = timeline.bin_strums(strums, bars)
    transcription = decoder_mod.decode(measures, vocab, cfg.decoder)
    text = render_mod.render_text(transcription, vocab, cfg.render)
    with open(args.out, "w", encoding="utf-8") as fp:
        decoder_mod.save_transcription(transcription, fp)
    if args.out_text:
        with open(args.out_text, "w", encoding="utf-8") as fp:
            fp.write(text + "\n")
    else:
        print(text)
    if args.dump_dir:
        dump = Path(args.dump_dir)
        dump.mkdir(parents=True, exist_ok=True)
        with open(dump / "strums.json", "w", encoding="utf-8") as fp:
            timeline.save_strums(strums, fp)
        with open(dump / "barlines.json", "w", encoding="utf-8") as fp:
            timeline.save_barlines(bars, fp)
        with open(dump / "transcription.json", "w", encoding="utf-8") as fp:
            decoder_mod.save_transcription(transcription, fp)
        with open(dump / "rendered.txt", "w", encoding="utf-8") as fp:
            fp.write(text + "\n")
    print(f"discarded {discarded} out-of-range strums", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strumscribe",
        description="Transcribe guitar strums into readable rhythmic-pattern sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("onsets", help="detect strum onsets in a WAV file")
    p.add_argument("--in", "--audio", dest="audio", required=True)
    p.add_argument("--out", required=True)
    _add_common(p, "onsets")
    p.set_defaults(func=cmd_onsets)

    p = sub.add_parser("barlines", help="clean up a noisy bar-line track")
    p.add_argument("--raw", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-barline-postproc", action="store_true")
    _add_common(p, "barlines")
    p.set_defaults(func=cmd_barlines)

    p = sub.add_parser("decode", help="decode strums into a pattern sequence")
    p.add_argument("--strums", required=True)
    p.add_argument("--barlines", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    _add_common(p, "decoder")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="score a transcription against ground truth")
    p.add_argument("--transcription")
    p.add_argument("--barlines")
    p.add_argument("--vocab")
    p.add_argument("--ground-truth", dest="ground_truth")
    p.add_argument("--manifest", help="newline-delimited JSON records for batch evaluation")
    p.add_argument("--out", required=True)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--jobs", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic ground-truth song")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--measures", type=int, default=32)
    p.add_argument("--tempo-bpm", dest="tempo_bpm", type=float, default=120.0)
    p.add_argument("--sigma-norm", dest="sigma_norm", type=float, default=0.0)
    p.add_argument("--switch-prob", dest="switch_prob", type=float, default=0.0)
    p.add_argument("--miss-rate", dest="miss_rate", type=float, default=0.0)
    p.add_argument("--spurious-rate", dest="spurious_rate", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("render", help="render a transcription as slash-notation text")
    p.add_argument("--transcription", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out")
    _add_common(p, "render")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("pipeline", help="WAV + raw bar lines to transcription and text")
    p.add_argument("--audio", required=True)
    p.add_argument("--raw-barlines", dest="raw_barlines", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--out-text", dest="out_text")
    p.add_argument("--dump-dir", dest="dump_dir")
    p.add_argument("--no-barline-postproc", action="store_true")
    _add_common(p, *_FLAGS)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
