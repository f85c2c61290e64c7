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

import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from ._lazy import numpy as np
from .timeline import MeasureStrums
from .vocabulary import TimeSignature, Vocabulary


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
        if not 0 < self.timing_sigma < math.inf:
            raise ValueError(f"timing_sigma must be finite and > 0, got {self.timing_sigma}")
        # an infinite change penalty forbids that change; NaN compares false
        for name in ("pattern_change_penalty", "timesig_change_penalty"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


# (measures x patterns) elements per slab of an emission table group
_SLAB_ELEMENTS = 1 << 14
# numpy's pairwise sum adds a run of up to this many terms in 8 lanes
_PAIRWISE_BLOCK = 128


def _row_sums(n: int, column, start: int = 0) -> np.ndarray:
    """np.sum(x, axis=-1) of a C-contiguous x of n nonnegative terms per row
    whose j-th term is the array column(j), summed in numpy's own order.

    numpy sums a contiguous row pairwise: fewer than 8 terms in sequence; up
    to _PAIRWISE_BLOCK terms in eight lanes, lane k adding terms k, k + 8,
    ... over the whole blocks of 8, combined as ((r0 + r1) + (r2 + r3)) +
    ((r4 + r5) + (r6 + r7)), and then the rest in sequence; more terms split
    at n // 2 rounded down to a multiple of 8, each side summed so and the
    two added. The row sum starts from 0.0, which leaves a nonnegative first
    term as it is. Each lane is summed in full before the next, in the
    order they combine, and columns are made on demand and added in place,
    so a few of them are alive at once, not all n.
    """
    if n < 8:
        return _sequential_sum(column, range(start, start + n))
    if n <= _PAIRWISE_BLOCK:
        end = start + n - n % 8
        total = _lane_sums(column, range(start, start + 8), end)
        for j in range(end, start + n):
            total += column(j)
        return total
    split = n // 2 - (n // 2) % 8
    total = _row_sums(split, column, start)
    total += _row_sums(n - split, column, start + split)
    return total


def _sequential_sum(column, terms: range) -> np.ndarray:
    total = column(terms[0])
    for j in terms[1:]:
        total += column(j)
    return total


def _lane_sums(column, lanes: range, end: int) -> np.ndarray:
    """The given lanes, each summed over its terms below end, added pairwise."""
    if len(lanes) == 1:
        return _sequential_sum(column, range(lanes[0], end, 8))
    half = len(lanes) // 2
    total = _lane_sums(column, lanes[:half], end)
    total += _lane_sums(column, lanes[half:], end)
    return total


def _half_setup(halves: Sequence[tuple[float, ...]]) -> tuple:
    """The per-vocabulary set-up of a table whose columns are patterns with
    the given onset lists for this half: (width, silent, alphabet, slots,
    below, above). `silent` lists the columns whose half has no onsets; the
    rest are the lookups of `contribution_tables`, over every column, and
    None when no column has an onset. A silent column has only padding
    slots and the -inf and +inf sentinels below and above every position,
    so a played measure costs it +inf."""
    silent = np.flatnonzero([h == () for h in halves])
    lengths = np.array([len(h) for h in halves], dtype=np.int64)
    if not lengths.any():
        return len(halves), silent, None, None, None, None
    onsets = np.concatenate(halves)
    alphabet = np.unique(onsets)
    slot = np.searchsorted(alphabet, onsets)
    owner = np.repeat(np.arange(len(halves)), lengths)
    rank = np.arange(len(onsets)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    # slot index of each onset in the alphabet, (rank x pattern); padding
    # points one past it, at the 0 appended to the per-member distances
    slots = np.full((lengths.max(), len(halves)), len(alphabet))
    slots[rank, owner] = slot
    member = np.zeros((len(alphabet) + 2, len(halves)), dtype=bool)
    member[[0, -1]] = True
    member[slot + 1, owner] = True
    extended = np.concatenate(([-np.inf], alphabet, [np.inf]))
    # the nearest member at or below, and at or above, each position
    position = np.arange(len(extended))[:, None]
    below = extended[np.maximum.accumulate(np.where(member, position, 0), axis=0)]
    reversed_above = np.where(member, position, len(extended) - 1)[::-1]
    above = extended[np.minimum.accumulate(reversed_above, axis=0)[::-1]]
    return len(halves), silent, alphabet, slots, below, above


class Compiled(NamedTuple):
    """What decoding against one vocabulary needs of it whatever the
    measures and the config: the two tables' set-up (`_half_setup`), each
    pattern's span in measures, the indices of the 2-measure patterns,
    each pattern's signature group, numbered in order of first appearance,
    and each group's patterns in ascending order."""

    tables: tuple[tuple, tuple]
    spans: list[int]
    multi: np.ndarray
    sig_codes: np.ndarray
    members: list[np.ndarray]


# each live vocabulary's Compiled, by id: hashing a Vocabulary hashes every
# pattern, and the lookup runs once per block of a decode
_SETUPS: dict[int, Compiled] = {}


def compiled(vocab: Vocabulary) -> Compiled:
    """The vocabulary's Compiled, built on its first use and kept until the
    vocabulary is collected."""
    setup = _SETUPS.get(id(vocab))
    if setup is None:
        patterns = vocab.patterns
        spans = [p.measures for p in patterns]
        sig_ids: dict[TimeSignature, int] = {}
        sig_codes = np.array(
            [sig_ids.setdefault(p.time_signature, len(sig_ids)) for p in patterns],
            dtype=np.int64,
        )
        setup = _SETUPS[id(vocab)] = Compiled(
            (
                _half_setup([p.onsets[0] for p in patterns]),
                _half_setup([p.onsets[1] for p in patterns if p.measures == 2]),
            ),
            spans,
            np.flatnonzero(np.array(spans) == 2),
            sig_codes,
            [np.flatnonzero(sig_codes == g) for g in range(len(sig_ids))],
        )
        weakref.finalize(vocab, _SETUPS.pop, id(vocab), None)
    return setup


def contribution_tables(
    measures: Sequence[MeasureStrums],
    vocab: Vocabulary,
    cfg: DecoderConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-measure emission contributions for all patterns.

    Returns (first, second). first has shape (n_measures, n_patterns), and
    first[m, p] is the cost contribution of pattern p's first measure
    matched against measure m. second has one column per 2-measure pattern,
    in vocabulary order, shape (n_measures, n_two_measure_patterns), and
    holds the contribution of that pattern's second measure. Impossible
    pairings are np.inf, which the decoder treats as pruned; this is the
    only place an impossible emission is marked.

    A cell depends on its own measure alone, so a song's tables may be
    filled a block of measures at a time, as `decode` does, with the same
    bits as in one call.

    Each half works over its onset alphabet U, the sorted distinct onsets of
    the patterns that play in that half. Per pattern it tabulates, over U
    extended by -inf and +inf, the nearest own onset at or below and at or
    above each alphabet position, stored as (position x pattern) so that a
    strum's lookup is one contiguous row. A strum s then needs only two
    lookups around searchsorted(U, s): since fl(s - u) is monotone in u, the
    nearest onset below s and the nearest above it hold the minimum |s - u|
    exactly, and a minimum does not depend on evaluation order. The onset
    side takes each alphabet member's distance to its nearest strum and
    gathers its square into the pattern's onset slots, padding with 0. A
    pattern silent in that half has only the sentinels, so any strum costs
    it +inf, and each slab is written as whole table rows. These lookups
    are built once per vocabulary and kept while it lives.

    Played measures are grouped by strum count S and each group is taken in
    slabs of about _SLAB_ELEMENTS (measures x patterns) cells. A cell's two
    sums, over its S strums and over the half's longest onset list, are
    whole-slab vector adds of one term column at a time (_row_sums), in the
    order numpy's pairwise sum adds a C-contiguous row of that length. Every
    other step is the same IEEE operation on the same operands as a dense
    pattern x strum x onset evaluation: subtract, abs, min, square, add, and
    the division by 2 sigma^2. So the tables match that evaluation
    (tests/oracles.py) bit for bit.
    """
    n_measures = len(measures)
    denom = 2.0 * cfg.timing_sigma * cfg.timing_sigma
    counts = np.array([len(m.positions) for m in measures])
    silent = np.flatnonzero(counts == 0)

    setup = compiled(vocab).tables
    tables = tuple(np.full((n_measures, half[0]), np.inf) for half in setup)
    for table, (width, silent_columns, alphabet, slots, below, above) in zip(tables, setup):
        table[np.ix_(silent, silent_columns)] = 0.0
        if alphabet is None:
            continue
        per_slab = max(1, _SLAB_ELEMENTS // width)
        for count in np.unique(counts[counts > 0]):
            group = np.flatnonzero(counts == count)
            # the whole number of slabs nearest the group's size, evened out,
            # so no slab is a small remainder: under 1.5 per_slab measures each
            for chosen in np.array_split(group, max(1, round(len(group) / per_slab))):
                s = np.array([measures[m].positions for m in chosen], dtype=float)
                at = np.searchsorted(alphabet, s)
                nearest_sq = np.zeros((len(chosen), len(alphabet) + 1))
                nearest_sq[:, :-1] = np.abs(s[:, :, None] - alphabet).min(axis=1) ** 2

                def to_pattern(j):
                    strum = s[:, j, None]
                    low = below[at[:, j]]
                    high = above[at[:, j] + 1]
                    np.abs(np.subtract(strum, low, out=low), out=low)
                    np.abs(np.subtract(strum, high, out=high), out=high)
                    np.minimum(low, high, out=low)
                    return np.multiply(low, low, out=low)

                def from_pattern(k):
                    return nearest_sq[:, slots[k]]

                mismatch = _row_sums(int(count), to_pattern)
                mismatch += _row_sums(len(slots), from_pattern)
                mismatch /= denom
                table[chosen] = mismatch
    return tables
