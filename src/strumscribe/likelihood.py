"""Decoder knobs and emission costs for pattern sequence decoding.

The emission cost of observing a measure's strums under a candidate pattern
is a two-way mismatch: the sum of squared distances from each observed strum
to its nearest pattern onset plus, symmetrically, from each pattern onset to
its nearest observed strum. Divided by 2*sigma^2 this is the negated Gaussian
log-likelihood of the timing errors, up to constants, which is all the
decoder needs since it minimizes cost differences.

A silent pattern on a silent measure costs zero; a silent pattern against
played strums (or a played pattern against a silent measure) is impossible
and costs np.inf. The change penalties in DecoderConfig are the transition
costs; the decoder charges them between consecutive pattern instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .timeline import MeasureStrums
from .vocabulary import Vocabulary


@dataclass(frozen=True)
class DecoderConfig:
    """Knobs governing decoding.

    timing_sigma is the strum timing standard deviation in measure-fraction
    units. pattern_change_penalty is charged whenever consecutive pattern
    instances differ; timesig_change_penalty is added on top when their time
    signatures differ too. Defaults were fixed by grid search on synthetic
    data.
    """

    timing_sigma: float = 0.03
    pattern_change_penalty: float = 2.0
    timesig_change_penalty: float = 6.0

    def __post_init__(self) -> None:
        if not self.timing_sigma > 0:
            raise ValueError("timing_sigma must be > 0")
        if self.pattern_change_penalty < 0 or self.timesig_change_penalty < 0:
            raise ValueError("change penalties must be >= 0")


def contribution_tables(
    measures: Sequence[MeasureStrums],
    vocab: Vocabulary,
    cfg: DecoderConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-measure emission contributions for all patterns.

    Returns (first, second), each of shape (n_measures, n_patterns). first[m, p]
    is the cost contribution of pattern p's first measure matched against
    measure m; second[m, p] is the contribution of its second measure (only
    meaningful for 2-measure patterns). Impossible pairings are np.inf, which
    the decoder treats as pruned; this is the only place an impossible
    emission is marked.
    """
    patterns = vocab.patterns
    n_measures, n_patterns = len(measures), len(patterns)
    denom = 2.0 * cfg.timing_sigma * cfg.timing_sigma

    tables = []
    for half in (0, 1):
        halves = [p.onsets[half] if half < p.measures else None for p in patterns]
        lengths = np.array([-1 if h is None else len(h) for h in halves])
        max_len = max(1, int(lengths.max(initial=0)))
        onset_grid = np.full((n_patterns, max_len), np.nan)
        for i, h in enumerate(halves):
            if h:
                onset_grid[i, : len(h)] = h
        pad = np.arange(max_len)[None, :] >= lengths[:, None]

        table = np.full((n_measures, n_patterns), np.inf)
        has_onsets = lengths > 0
        silent_half = lengths == 0
        for m, strums in enumerate(measures):
            s = np.asarray(strums.positions)
            if s.size == 0:
                table[m, silent_half] = 0.0
                continue
            distances = np.abs(s[None, :, None] - onset_grid[:, None, :])
            distances[np.broadcast_to(pad[:, None, :], distances.shape)] = np.inf
            to_pattern = distances.min(axis=2)
            from_pattern = np.where(pad, 0.0, distances.min(axis=1))
            mismatch = np.sum(to_pattern**2, axis=1) + np.sum(from_pattern**2, axis=1)
            table[m, has_onsets] = mismatch[has_onsets] / denom
        tables.append(table)
    return tables[0], tables[1]
