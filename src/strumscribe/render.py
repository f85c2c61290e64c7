"""Slash-notation-style text rendering of transcriptions.

Each measure becomes a `| ... |` cell on an onset grid of `.` slots with `x`
marking attacks; a time-signature marker precedes the first measure and every
signature change. When a pattern instance immediately repeats the previous
one, its cell collapses to `%` (or `%%` for a repeated 2-measure instance).
Only attack positions are rendered; the decoder carries no durations.
"""

from __future__ import annotations

import warnings

from .config import RenderOptions
from .decoder import Transcription
from .vocabulary import Vocabulary


class LossyRenderWarning(UserWarning):
    """An onset did not sit exactly on the requested grid."""


def _measure_cell(positions, resolution: int, context: str) -> str:
    slots = ["."] * resolution
    for position in positions:
        slot = round(position * resolution)
        if slot >= resolution:
            slot = resolution - 1
        if abs(position - slot / resolution) > 1e-9 or slots[slot] == "x":
            warnings.warn(
                f"{context}: onset at {position} rendered at nearest grid slot "
                f"{slot}/{resolution}",
                LossyRenderWarning,
                stacklevel=3,
            )
        slots[slot] = "x"
    return "".join(slots)


def render_text(
    transcription: Transcription, vocab: Vocabulary, opts: RenderOptions | None = None
) -> str:
    """Render a transcription as one line of slash-notation-style text."""
    opts = opts or RenderOptions()
    tokens: list[str] = []
    current_sig = None
    previous_id = None
    entries = transcription.entries
    i = 0
    while i < len(entries):
        entry = entries[i]
        pattern = vocab.by_id(entry.pattern_id)
        span = pattern.measures
        if entry.time_signature != current_sig:
            if tokens:
                tokens.append("|")
            tokens.append(str(entry.time_signature))
            current_sig = entry.time_signature
        if opts.use_repeat_symbol and previous_id == pattern.id:
            tokens.append("| " + "%" * span)
        else:
            if opts.show_pattern_ids:
                tokens.append(f"[{pattern.id}]")
            for phase in range(span):
                cell = _measure_cell(
                    pattern.onsets[phase],
                    opts.grid_resolution,
                    f"measure {entry.measure_index + phase} ({pattern.id})",
                )
                tokens.append("| " + cell)
        previous_id = pattern.id
        i += span
    return " ".join(tokens) + " |"
