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

    Each half works over its onset alphabet U, the sorted distinct onsets of
    the patterns that play in that half. Per pattern it tabulates, over U
    extended by -inf and +inf, the nearest own onset at or below and at or
    above each alphabet position. A strum s then needs only two lookups
    around searchsorted(U, s): since fl(s - u) is monotone in u, the nearest
    onset below s and the nearest above it hold the minimum |s - u| exactly,
    and a minimum does not depend on evaluation order. The onset side takes
    each alphabet member's distance to its nearest strum and gathers it into
    the pattern's onset slots, padding with 0.

    The tables match a dense pattern x strum x onset evaluation bit for bit
    because the squared distances are summed over C-contiguous rows of the
    same lengths (the measure's strum count; the half's longest onset list).
    numpy's pairwise sum groups a row's terms by its length and layout, and
    a fancy-indexed gather need not come back C-contiguous, hence the
    np.ascontiguousarray before each sum.
    """
    patterns = vocab.patterns
    n_measures, n_patterns = len(measures), len(patterns)
    denom = 2.0 * cfg.timing_sigma * cfg.timing_sigma

    tables = []
    for half in (0, 1):
        halves = [p.onsets[half] if half < p.measures else None for p in patterns]
        silent_half = np.array([h == () for h in halves], dtype=bool)
        rows = np.flatnonzero([bool(h) for h in halves])
        table = np.full((n_measures, n_patterns), np.inf)
        tables.append(table)
        for m, strums in enumerate(measures):
            if not strums.positions:
                table[m, silent_half] = 0.0
        if rows.size == 0:
            continue

        alphabet = np.unique(np.concatenate([halves[i] for i in rows]))
        max_len = max(len(halves[i]) for i in rows)
        # slot index of each onset in the alphabet; padding points one past
        # it, at the 0 appended to the per-member distances below
        slots = np.full((len(rows), max_len), len(alphabet))
        member = np.zeros((len(rows), len(alphabet) + 2), dtype=bool)
        member[:, [0, -1]] = True
        for r, i in enumerate(rows):
            slot = np.searchsorted(alphabet, halves[i])
            slots[r, : len(slot)] = slot
            member[r, slot + 1] = True
        extended = np.concatenate(([-np.inf], alphabet, [np.inf]))
        # the nearest member at or below, and at or above, each position
        position = np.arange(len(extended))
        below = extended[np.maximum.accumulate(np.where(member, position, 0), axis=1)]
        reversed_above = np.where(member, position, len(extended) - 1)[:, ::-1]
        above = extended[np.minimum.accumulate(reversed_above, axis=1)[:, ::-1]]

        for m, strums in enumerate(measures):
            if not strums.positions:
                continue
            s = np.asarray(strums.positions)
            at = np.searchsorted(alphabet, s)
            to_pattern = np.ascontiguousarray(
                np.minimum(np.abs(s - below[:, at]), np.abs(s - above[:, at + 1]))
            )
            nearest = np.append(np.abs(s[:, None] - alphabet).min(axis=0), 0.0)
            from_pattern = np.ascontiguousarray(nearest[slots])
            mismatch = np.sum(to_pattern**2, axis=1) + np.sum(from_pattern**2, axis=1)
            table[m, rows] = mismatch / denom
    return tables[0], tables[1]
