"""Guitar strum onsets in, readable rhythmic-pattern transcriptions out.

The package's names load on first use (PEP 562): `import strumscribe`
runs no stage module, and `strumscribe.decode` imports `decoder` when it
is first read. `_EXPORTS` maps each module to the names it exports.
"""

import importlib

from . import _lazy  # noqa: F401  (a missing numpy fails here, not at first use)

_EXPORTS = {
    "barlines": ("discontinuity_rate", "postprocess_barlines"),
    "config": ("DecoderConfig", "OnsetConfig", "PostprocConfig", "RenderOptions"),
    "decoder": ("Transcription", "TranscriptionEntry", "decode", "reconstruct_strums"),
    "metrics": (
        "MatchResult",
        "TranscriptionReport",
        "evaluate_transcription",
        "match_events",
        "pattern_discontinuity",
        "timesig_discontinuity",
    ),
    "onsets": ("AudioBuffer", "detect_onsets", "load_wav", "onset_strength", "pick_peaks"),
    "render": ("render_text",),
    "synth": ("SynthSong", "SynthSpec", "generate_song"),
    "timeline": ("BarlineTrack", "MeasureStrums", "StrumSequence", "bin_strums"),
    "vocabulary": (
        "RhythmicPattern",
        "TimeSignature",
        "Vocabulary",
        "VocabularyError",
        "load_vocabulary",
    ),
}

_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
