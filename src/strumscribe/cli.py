"""Command-line entry point wiring the library into pipelines.

Subcommands: onsets, barlines, decode, eval, synth, render, pipeline.
Configuration comes from defaults, then an optional JSON config file
(unknown keys are hard errors), then explicit flags. Each subcommand is a
short list of stages that returns its outputs in memory; `_commit` writes
them only once every stage has succeeded. Exit codes: 0 success,
1 validation or decoding failure, 2 I/O failure.

Within one process the argument parser is built once.

Importing this module does not import numpy (see `_lazy`): it loads at
the first stage that computes with it. `render`, `barlines`, `--help`, an
argument error and a run that fails before such a stage never load it,
which saves such a one-shot process about 0.1 s of start-up.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import io
import json
import os
import stat
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

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
    """Parse a JSON config file, rejecting any unknown key or mistyped value.
    RunConfig's dataclass fields are the file's sections, its other fields
    the scalars; keys are checked in RunConfig's field order."""
    payload = _load(json.load, "config", path)
    if not isinstance(payload, dict):
        raise ValueError("config must be a JSON object")
    defaults = _defaults(RunConfig)
    unknown = set(payload) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, default in defaults.items():
        if key not in payload:
            continue
        if not dataclasses.is_dataclass(default):
            kwargs[key] = _typed(key, payload[key], default)
            continue
        overrides = payload[key]
        if not isinstance(overrides, dict):
            raise ValueError(f"config section {key!r} must be an object")
        fields = _defaults(type(default))
        bad = set(overrides) - set(fields)
        if bad:
            raise ValueError(f"unknown keys in config section {key!r}: {sorted(bad)}")
        kwargs[key] = type(default)(**{
            field: _typed(f"{key}.{field}", overrides[field], field_default)
            for field, field_default in fields.items() if field in overrides
        })
    return RunConfig(**kwargs)


# Every tuning flag: {RunConfig field, dotted below a section: flag}. A flag
# parses like its field's default: a bool flag sets the opposite of the
# default, a tuple takes comma-separated ints, anything else takes the
# default's type. Fields missing here (onsets.log_compression) are
# config-file only.
_FLAGS = {
    "decoder.timing_sigma": "--timing-sigma",
    "decoder.pattern_change_penalty": "--pattern-change-penalty",
    "decoder.timesig_change_penalty": "--timesig-change-penalty",
    "barlines.subdivision_factors": "--subdivision-factors",
    "barlines.deletion_penalty": "--deletion-penalty",
    "barlines.insertion_penalty": "--insertion-penalty",
    "barlines.tempo_change_penalty": "--tempo-change-penalty",
    "barlines.snap_tolerance_sec": "--snap-tolerance",
    "barlines.lookahead": "--lookahead",
    "onsets.frame_size": "--frame-size",
    "onsets.hop_size": "--hop-size",
    "onsets.n_mels": "--n-mels",
    "onsets.fmin_hz": "--fmin",
    "onsets.fmax_hz": "--fmax",
    "onsets.delta": "--delta",
    "onsets.pre_max": "--pre-max",
    "onsets.post_max": "--post-max",
    "onsets.pre_avg": "--pre-avg",
    "onsets.post_avg": "--post-avg",
    "onsets.min_gap_sec": "--min-gap",
    "render.use_repeat_symbol": "--no-repeat-symbol",
    "render.grid_resolution": "--grid-resolution",
    "render.show_pattern_ids": "--show-pattern-ids",
    "strum_tolerance_sec": "--tolerance",
    "seed": "--seed",
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


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    """Add --config and the flags of the named config sections and fields."""
    parser.add_argument("--config", help="JSON config file; unknown keys are errors")
    defaults = RunConfig()
    for field, flag in _FLAGS.items():
        if field.partition(".")[0] not in names:
            continue
        default = functools.reduce(getattr, field.split("."), defaults)
        if isinstance(default, bool):
            parser.add_argument(flag, action="store_const", const=not default)
        elif isinstance(default, tuple):
            parser.add_argument(flag, type=_int_tuple,
                                help="comma-separated, e.g. " + ",".join(map(str, default)))
        else:
            parser.add_argument(flag, type=type(default))


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    changes: dict = {}  # {section, or "" for RunConfig itself: {field: value}}
    for field, flag in _FLAGS.items():
        value = getattr(args, _dest(flag), None)
        if value is not None:
            section, _, name = field.rpartition(".")
            changes.setdefault(section, {})[name] = value
    sections = {section: dataclasses.replace(getattr(cfg, section), **fields)
                for section, fields in changes.items() if section}
    return dataclasses.replace(cfg, **changes.get("", {}), **sections)


class Outputs(NamedTuple):
    """Output files as {path: bytes}, stdout text, and a directory to create."""

    files: dict
    stdout: str | None = None
    directory: str | None = None


def _commit(files: dict, directory: str | None = None) -> None:
    """Write every output file or none. A regular file goes to a temp file
    beside it, with the mode open(path, "w") gives it, and the temps replace
    their targets only once all are written; a device or a pipe, such as
    /dev/null, is then written in place. A failure removes the temps and
    then, deepest first, the directories this commit created while they
    are empty."""
    staged: list[tuple[str, str]] = []
    in_place: list[tuple[str, bytes]] = []
    created: list[Path] = []  # deepest first
    try:
        if directory is not None:
            created = [d for d in (Path(directory), *Path(directory).parents) if not d.exists()]
            Path(directory).mkdir(parents=True, exist_ok=True)
        for index, (path, data) in enumerate(files.items()):
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            if os.path.exists(path) and not os.path.isfile(path):
                in_place.append((path, data))
                continue
            target = os.path.realpath(path)  # through a symlink, as open(path, "w") writes
            temp = f"{target}.{os.getpid()}-{index}.tmp"
            try:
                fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, str(path)) from None
            staged.append((temp, target))
            with contextlib.suppress(FileNotFoundError):  # an existing file keeps its mode
                os.fchmod(fd, stat.S_IMODE(os.stat(target).st_mode))
            with os.fdopen(fd, "wb") as fp:
                fp.write(data)
        for temp, target in staged:
            os.replace(temp, target)
        for path, data in in_place:
            with open(path, "wb") as fp:
                fp.write(data)
    except BaseException:
        for temp, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(temp)
        for created_dir in created:
            with contextlib.suppress(OSError):  # only while empty
                created_dir.rmdir()
        raise


def _load(loader, kind: str, path: str):
    """loader applied to the UTF-8 text file at path. A file that is not
    UTF-8 is a ValueError naming the input kind and the path."""
    with open(path, encoding="utf-8") as fp:
        try:
            text = fp.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{kind} file {path} is not UTF-8: {exc}") from None
    return loader(io.StringIO(text))


def _encode(save, value) -> bytes:
    """What save(value, fp) writes to a text file, as UTF-8 bytes."""
    buffer = io.StringIO()
    save(value, buffer)
    return buffer.getvalue().encode("utf-8")


def _lines(text: str) -> bytes:
    """text and a final newline as UTF-8 bytes: a rendered sheet or a JSON report."""
    return (text + "\n").encode("utf-8")


# Stages take and return values in memory. They call the library through
# module attributes, so a tracer that swaps those attributes sees each call.
def _strums_from_audio(path: str, cfg: RunConfig) -> timeline.StrumSequence:
    return onsets_mod.detect_onsets(onsets_mod.load_wav(path), cfg.onsets)


def _barlines(path: str, cfg: RunConfig, postproc: bool) -> tuple[bytes, timeline.BarlineTrack]:
    """The raw bar-line file's bytes and its track, cleaned if postproc."""
    with open(path, "rb") as fp:
        raw_bytes = fp.read()
    try:
        raw = timeline.load_barlines(io.BytesIO(raw_bytes))
    except UnicodeDecodeError as exc:
        raise ValueError(f"bar-line file {path} is not UTF-8: {exc}") from None
    return raw_bytes, barlines_mod.postprocess_barlines(raw, cfg.barlines) if postproc else raw


def _decode(strums, bars, vocab: Vocabulary, cfg: RunConfig) -> decoder_mod.Transcription:
    """Bin the strums into measures and decode them."""
    measures, discarded = timeline.bin_strums(strums, bars)
    transcription = decoder_mod.decode(measures, vocab, cfg.decoder)
    print(f"discarded {discarded} out-of-range strums", file=sys.stderr)
    return transcription


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
    vocab = _load(load_vocabulary, "vocabulary", vocab_path)
    transcription = _load(
        decoder_mod.load_transcription, "transcription", resolve("transcription"))
    bars = _load(timeline.load_barlines, "bar-line", resolve("barlines"))
    ground_truth = _load(timeline.load_strums, "ground-truth", resolve("ground_truth"))
    report = metrics_mod.evaluate_transcription(transcription, bars, vocab, ground_truth, tolerance)
    return record.get("song_id", "?"), report


def _read_manifest(path: str) -> list[tuple[int, dict]]:
    """The manifest's (line number, record) pairs, skipping blank lines."""
    records = []
    # list splits the text at "\n" alone, as iterating over the file would
    for line_no, line in enumerate(_load(list, "manifest", path), start=1):
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
    numbered: tuple[int, dict],
    base_dir: Path,
    fallback_vocab: str | None,
    tolerance: float,
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


def cmd_onsets(args: argparse.Namespace, cfg: RunConfig) -> Outputs:
    strums = _strums_from_audio(args.audio, cfg)
    print(f"detected {len(strums)} onsets", file=sys.stderr)
    return Outputs({args.out: _encode(timeline.save_strums, strums)})


def cmd_barlines(args: argparse.Namespace, cfg: RunConfig) -> Outputs:
    raw_bytes, bars = _barlines(args.raw, cfg, not args.no_barline_postproc)
    data = raw_bytes if args.no_barline_postproc else _encode(timeline.save_barlines, bars)
    return Outputs({args.out: data})


def cmd_decode(args: argparse.Namespace, cfg: RunConfig) -> Outputs:
    vocab = _load(load_vocabulary, "vocabulary", args.vocab)
    strums = _load(timeline.load_strums, "strum", args.strums)
    bars = _load(timeline.load_barlines, "bar-line", args.barlines)
    transcription = _decode(strums, bars, vocab, cfg)
    return Outputs({args.out: _encode(decoder_mod.save_transcription, transcription)})


def ProcessPoolExecutor(*args, **kwargs):
    """concurrent.futures.ProcessPoolExecutor, imported on the first call:
    only `eval --jobs N` starts a pool, and the import would cost every
    process about 1.2 MiB of memory and 20 ms of start-up."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(*args, **kwargs)


def cmd_eval(args: argparse.Namespace, cfg: RunConfig) -> Outputs:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    tolerance = cfg.strum_tolerance_sec
    if args.manifest:
        records = _read_manifest(args.manifest)
        evaluate = functools.partial(_eval_record, base_dir=Path(args.manifest).parent,
                                     fallback_vocab=args.vocab, tolerance=tolerance)
        jobs = min(args.jobs, len(records))
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(evaluate, records))
        else:
            results = list(map(evaluate, records))
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
    return Outputs({args.out: _lines(json.dumps(payload, indent=2, sort_keys=True))})


def cmd_synth(args: argparse.Namespace, cfg: RunConfig) -> Outputs:
    spec = synth_mod.SynthSpec(
        seed=cfg.seed,
        vocab=_load(load_vocabulary, "vocabulary", args.vocab),
        measures=args.measures,
        tempo_bpm=args.tempo_bpm,
        sigma_norm=args.sigma_norm,
        switch_prob=args.switch_prob,
        miss_rate=args.miss_rate,
        spurious_rate=args.spurious_rate,
    )
    song = synth_mod.generate_song(spec)
    out_dir = Path(args.out_dir)
    bundle = {
        "transcription": song.ground_truth.to_dict(),
        "barlines_sec": list(song.barlines.times_sec),
        "nominal_sec": list(song.nominal.times_sec),
        "observed_sec": list(song.observed.times_sec),
    }
    files = {
        out_dir / "strums.json": _encode(timeline.save_strums, song.observed),
        out_dir / "nominal_strums.json": _encode(timeline.save_strums, song.nominal),
        out_dir / "barlines.json": _encode(timeline.save_barlines, song.barlines),
        out_dir / "transcription.json": _encode(decoder_mod.save_transcription, song.ground_truth),
        out_dir / "ground_truth.json": _lines(json.dumps(bundle, indent=2, sort_keys=True)),
    }
    return Outputs(files, directory=args.out_dir)


def cmd_render(args: argparse.Namespace, cfg: RunConfig) -> Outputs:
    vocab = _load(load_vocabulary, "vocabulary", args.vocab)
    transcription = _load(decoder_mod.load_transcription, "transcription", args.transcription)
    text = render_mod.render_text(transcription, vocab, cfg.render)
    return Outputs({args.out: _lines(text)}) if args.out else Outputs({}, stdout=text)


def cmd_pipeline(args: argparse.Namespace, cfg: RunConfig) -> Outputs:
    vocab = _load(load_vocabulary, "vocabulary", args.vocab)
    strums = _strums_from_audio(args.audio, cfg)
    _, bars = _barlines(args.raw_barlines, cfg, not args.no_barline_postproc)
    transcription = _decode(strums, bars, vocab, cfg)
    text = render_mod.render_text(transcription, vocab, cfg.render)
    saved = _encode(decoder_mod.save_transcription, transcription)
    files = {args.out: saved}
    if args.out_text:
        files[args.out_text] = _lines(text)
    if args.dump_dir:
        dump = Path(args.dump_dir)
        files[dump / "strums.json"] = _encode(timeline.save_strums, strums)
        files[dump / "barlines.json"] = _encode(timeline.save_barlines, bars)
        files[dump / "transcription.json"] = saved
        files[dump / "rendered.txt"] = _lines(text)
    return Outputs(files, None if args.out_text else text, args.dump_dir)


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
    p.add_argument("--jobs", type=int, default=1,
                   help="evaluate manifest records in N worker processes (default 1)")
    _add_common(p, "strum_tolerance_sec")
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
    _add_common(p, "seed")
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
    _add_common(p, "decoder", "barlines", "onsets", "render")
    p.set_defaults(func=cmd_pipeline)

    return parser


# one parser per process: parse_args keeps no state in it, and no argument
# has a mutable default or an "append" action that could carry values over
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        outputs = args.func(args, _config_from_args(args))
        _commit(outputs.files, outputs.directory)
        if outputs.stdout is not None:
            print(outputs.stdout)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
