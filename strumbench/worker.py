"""One closed-loop client: drives `strumscribe.cli.main` in-process.

Run by run.py as `python3 worker.py <config.json>` in a fresh interpreter,
so that the peak RSS it reports is this client's alone. It runs one
untimed warm-up op, then ops back to back for the configured time (and,
when tracing, the same loop again under the tracer), checks every op's
outputs, and finally scores the transcriptions with one untimed
`eval --manifest --jobs 1`. Results go to the JSON file named in the config.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import outputs


# files each op writes, in the order they enter the output digest
OUTPUTS = {
    "pipeline_audio": ("transcription", "text"),
    "decode_bigvocab": ("transcription", "text", "report"),
}


def _argvs(workload: str, song: dict, vocab: str, out: dict) -> list[list[str]]:
    if workload == "pipeline_audio":
        return [["pipeline", "--audio", song["audio"], "--raw-barlines", song["raw_barlines"],
                 "--vocab", vocab, "--out", out["transcription"], "--out-text", out["text"]]]
    return [
        ["decode", "--strums", song["strums"], "--barlines", song["barlines"],
         "--vocab", vocab, "--out", out["transcription"]],
        ["render", "--transcription", out["transcription"], "--vocab", vocab, "--out", out["text"]],
        ["eval", "--transcription", out["transcription"], "--barlines", song["barlines"],
         "--vocab", vocab, "--ground-truth", song["nominal"], "--out", out["report"]],
    ]


class Client:
    def __init__(self, config: dict, manifest: dict, cli) -> None:
        self.cli = cli
        self.workload = manifest["workload"]
        self.songs = manifest["songs"]
        self.vocab_path = manifest["vocab"]
        self.vocab = outputs.load_json(self.vocab_path)
        self.expected = config.get("expected_digests") or {}
        self.seen: dict[str, str] = {}
        self.failures: list[str] = []
        out_dir = Path(config["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        self.ops = []
        for song in self.songs:
            out = {key: str(out_dir / f"{song['id']}.{key}") for key in OUTPUTS[self.workload]}
            measures = None
            if self.workload != "pipeline_audio":
                bars = outputs.load_json(song["barlines"])["barlines_sec"]
                strums = outputs.load_json(song["strums"])["strums_sec"]
                measures = outputs.bin_positions(strums, bars)
            self.ops.append((song, out, _argvs(self.workload, song, self.vocab_path, out), measures))

    def run_op(self, index: int, tracer=None) -> tuple[float, bool, int]:
        """Run op `index` (cycling over the song pool); return its wall
        time, whether its outputs passed every check, and measures done."""
        song, out, argvs, measures = self.ops[index % len(self.ops)]
        for path in out.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        sink = io.StringIO()
        codes = []
        if tracer is not None:
            tracer.begin_op(index, {"true_plucks": song["true_plucks"],
                                    "true_barlines": song["true_barlines"]})
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for argv in argvs:
                    try:
                        codes.append(self.cli.main(argv))
                    except SystemExit as exc:
                        codes.append(exc.code)
        except Exception:  # an op that raises is a failed op, not a crashed run
            codes.append(traceback.format_exc(limit=3))
        elapsed = time.perf_counter() - started
        if tracer is not None:
            elapsed = tracer.end_op()
        return (elapsed, *self.check(song, out, measures, codes, sink.getvalue()))

    def check(self, song, out, measures, codes, captured) -> tuple[bool, int]:
        def fail(reason: str) -> tuple[bool, int]:
            if len(self.failures) < 5:
                self.failures.append(f"{song['id']}: {reason}")
            return False, 0

        if any(code != 0 for code in codes):
            return fail(f"exit codes {codes}: {captured[-300:]!r}")
        try:
            blobs = [Path(path).read_bytes() for path in out.values()]
            transcription = json.loads(blobs[0])
        except (OSError, ValueError) as exc:
            return fail(f"unreadable output: {exc}")
        got = outputs.digest(blobs)
        first = self.seen.setdefault(song["id"], got)
        want = self.expected.get(song["id"], first)
        if got != want:
            return fail(f"digest {got[:12]} != {want[:12]}")
        if measures is not None and not outputs.cost_matches(transcription, measures, self.vocab):
            return fail(f"total_cost {transcription.get('total_cost')} disagrees with the scalar rule")
        return True, len(transcription["measures"])

    def loop(self, seconds: float, tracer=None) -> dict:
        latencies, failed, measures = [], 0, 0
        started = time.perf_counter()
        index = 0
        while index < len(self.ops) or time.perf_counter() - started < seconds:
            elapsed, ok, done = self.run_op(index, tracer)
            latencies.append(elapsed)
            failed += not ok
            measures += done
            index += 1
        return {"latencies": latencies, "failed": failed, "measures": measures}

    def pool_digest(self) -> str:
        return outputs.digest([bytes.fromhex(self.seen[s["id"]]) for s in self.songs])

    def score(self, work: Path) -> dict:
        """Untimed `eval --manifest --jobs 1` over every song of the pool."""
        records = []
        for song, out, _, _ in self.ops:
            bars = song["barlines"]
            if self.workload == "pipeline_audio":
                bars = str(work / f"{song['id']}.cleaned.json")
                self._quiet(["barlines", "--raw", song["raw_barlines"], "--out", bars])
            records.append({"song_id": song["id"], "transcription": out["transcription"],
                            "barlines": bars, "ground_truth": song["nominal"]})
        manifest, report = work / "eval_manifest.jsonl", work / "eval_report.json"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        self._quiet(["eval", "--manifest", str(manifest), "--vocab", self.vocab_path,
                     "--out", str(report), "--jobs", "1"])
        payload = outputs.load_json(str(report))
        if len(payload["songs"]) != len(records):
            raise RuntimeError("eval scored fewer songs than it was given")
        aggregate = payload["aggregate"]
        return {"strum_f1": aggregate["f1"]["mean"], "pattern_disc": aggregate["pattern_disc"]["mean"]}

    def _quiet(self, argv: list[str]) -> None:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited {code}: {sink.getvalue()[-300:]}")


def peak_rss_mb() -> float:
    """Peak resident set of this process image. getrusage's ru_maxrss would
    also count the parent's pages that the exec of this process replaced."""
    try:
        with open("/proc/self/status", encoding="ascii") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(config_path: str) -> None:
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    sys.path.insert(0, config["src"])
    from strumscribe import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(config["src"]).resolve()):
        raise RuntimeError(f"imported strumscribe from {cli.__file__}, not {config['src']}")
    manifest = json.loads(Path(config["manifest"]).read_text(encoding="utf-8"))
    client = Client(config, manifest, cli)
    work = Path(config["out_dir"])
    warm_up = client.run_op(0)
    result: dict = {"warm_up_ok": warm_up[1]}
    budget = config["seconds"] / (2 if config["trace"] else 1)
    result["untraced"] = client.loop(budget)
    result["peak_rss_mb"] = peak_rss_mb()
    if config["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        restore = tracer.install()
        try:
            result["traced"] = client.loop(budget, tracer)
        finally:
            restore()
        tracer.dump(config["trace_path"])
        result["per_op"] = [
            {"wall": op["wall"], "self": dict(op["self"]), "counters": op["counters"]}
            for op in tracer.per_op().values()
        ]
    else:
        result["quality"] = client.score(work)
    result["pool_digest"] = client.pool_digest()
    result["song_digests"] = client.seen
    result["failures"] = client.failures
    Path(config["result_path"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
