"""Guitar strum onsets in, readable rhythmic-pattern transcriptions out."""

from .barlines import PostprocConfig, discontinuity_rate, postprocess_barlines
from .decoder import Transcription, TranscriptionEntry, decode, reconstruct_strums
from .likelihood import DecoderConfig
from .metrics import (
    MatchResult,
    TranscriptionReport,
    evaluate_transcription,
    match_events,
    pattern_discontinuity,
    timesig_discontinuity,
)
from .onsets import AudioBuffer, OnsetConfig, detect_onsets, load_wav, onset_strength, pick_peaks
from .render import RenderOptions, render_text
from .synth import SynthSong, SynthSpec, generate_song
from .timeline import BarlineTrack, MeasureStrums, StrumSequence, bin_strums
from .vocabulary import (
    RhythmicPattern,
    TimeSignature,
    Vocabulary,
    VocabularyError,
    load_vocabulary,
)

__all__ = [
    "AudioBuffer",
    "BarlineTrack",
    "DecoderConfig",
    "MatchResult",
    "MeasureStrums",
    "OnsetConfig",
    "PostprocConfig",
    "RenderOptions",
    "RhythmicPattern",
    "StrumSequence",
    "SynthSong",
    "SynthSpec",
    "TimeSignature",
    "Transcription",
    "TranscriptionEntry",
    "TranscriptionReport",
    "Vocabulary",
    "VocabularyError",
    "bin_strums",
    "decode",
    "detect_onsets",
    "discontinuity_rate",
    "evaluate_transcription",
    "generate_song",
    "load_vocabulary",
    "load_wav",
    "match_events",
    "onset_strength",
    "pattern_discontinuity",
    "pick_peaks",
    "postprocess_barlines",
    "reconstruct_strums",
    "render_text",
    "timesig_discontinuity",
]

__version__ = "0.1.0"
