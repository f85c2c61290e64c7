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

import functools
import weakref
from typing import NamedTuple, Sequence

from ._lazy import numpy as np
from .config import DecoderConfig
from .timeline import MeasureStrums
from .vocabulary import TimeSignature, Vocabulary


# (measures x patterns) elements per slab of an emission table group
_SLAB_ELEMENTS = 1 << 14
# numpy's pairwise sum adds a run of up to this many terms in 8 lanes
_PAIRWISE_BLOCK = 128


@functools.lru_cache(maxsize=64)
def _pairwise_order(n: int, start: int = 0):
    """The order in which numpy's pairwise sum adds a C-contiguous row of n
    terms, numbered from start, as a tree: a leaf is a term's index and a
    node a pair (left, right), added as left + right.

    numpy sums fewer than 8 terms in sequence; up to _PAIRWISE_BLOCK terms
    in eight lanes, lane k adding terms k, k + 8, ... over the whole blocks
    of 8, combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and
    then the rest in sequence; more terms split at n // 2 rounded down to a
    multiple of 8, each side summed so and the two added. Its sum starts
    from 0.0, which leaves a nonnegative first term as it is.
    """
    def chain(terms):
        return functools.reduce(lambda left, right: (left, right), terms)

    if n < 8:
        return chain(range(start, start + n))
    if n <= _PAIRWISE_BLOCK:
        end = start + n - n % 8
        lanes = [chain(range(k, end, 8)) for k in range(start, start + 8)]
        while len(lanes) > 1:
            lanes = list(zip(lanes[::2], lanes[1::2]))
        return chain([lanes[0], *range(end, start + n)])
    split = n // 2 - (n // 2) % 8
    return _pairwise_order(split, start), _pairwise_order(n - split, start + split)


def _row_sums(n: int, column) -> np.ndarray:
    """np.sum(x, axis=-1) of a C-contiguous x of n nonnegative terms per row
    whose j-th term is the array column(j), added in _pairwise_order. Each
    side of a node is summed in full before the next, and columns are made
    on demand and added in place, so a few of them are alive at once, not
    all n."""
    return _tree_sum(_pairwise_order(n), column)


def _tree_sum(node, column) -> np.ndarray:
    if isinstance(node, int):
        return column(node)
    left, right = node
    values = _tree_sum(left, column)
    values += _tree_sum(right, column)
    return values


def _onset_plan(slots: np.ndarray) -> tuple:
    """The onset side's row sums over the padded slots (rank x pattern) as a
    plan of shared partial sums, in _pairwise_order. A node is a tuple of
    (child, codes) parts; its values are the sum, in order, of each child's
    values at its codes, and a child None stands for the per-slot values
    themselves. Below the root a node has one column per distinct pair of
    its children's columns, so patterns that agree on a subtree's slots
    share its sum, and a subtree of padding alone is one column; the root
    has one column per pattern."""
    tree = _pairwise_order(len(slots))
    parts = [_shared(tree, slots)] if isinstance(tree, int) else [_shared(t, slots) for t in tree]
    return tuple((child, np.array(codes)) for child, codes in parts)


def _shared(node, slots: np.ndarray) -> tuple:
    """An _onset_plan node below the root and each pattern's column in its
    values."""
    if isinstance(node, int):
        return None, slots[node].tolist()
    (left, left_codes), (right, right_codes) = (_shared(child, slots) for child in node)
    pairs: dict[tuple[int, int], int] = {}
    codes = [pairs.setdefault(pair, len(pairs)) for pair in zip(left_codes, right_codes)]
    left_columns, right_columns = map(np.array, zip(*pairs))
    return ((left, left_columns), (right, right_columns)), codes


def _plan_sums(node, leaves: np.ndarray) -> np.ndarray:
    """The values of an _onset_plan node, given the per-slot values. Each
    child's values are dropped once gathered into their parent. take gives
    C-ordered values, where x[:, codes] would give Fortran-ordered ones,
    which numpy adds to a C-ordered array at a fraction of the speed."""
    if node is None:
        return leaves
    (child, codes), *rest = node
    values = _plan_sums(child, leaves).take(codes, axis=1)
    for child, codes in rest:
        values += _plan_sums(child, leaves).take(codes, axis=1)
    return values


def _half_setup(halves: Sequence[tuple[float, ...]]) -> tuple:
    """The per-vocabulary set-up of a table whose columns are patterns with
    the given onset lists for this half: (width, silent, alphabet, plan,
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
    # np.unique(onsets) by its own sorting method: np.unique would import
    # numpy.ma, for its masked-array check, in every process that decodes
    ordered = np.sort(onsets)
    alphabet = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
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
    return len(halves), silent, alphabet, _onset_plan(slots), below, above


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
    lookups around at = searchsorted(U, s): since fl(s - u) is monotone in
    u, the nearest onset below s and the nearest above it hold the minimum
    |s - u| exactly, and a minimum does not depend on evaluation order.
    searchsorted's side "left" puts s in (U[at - 1], U[at]], so s - low and
    high - s are at least +0, their own absolute values, and the -inf and
    +inf sentinels give +inf. A pattern silent in that half has only the
    sentinels, so any strum costs it +inf, and each slab is written as
    whole table rows. The onset side takes each alphabet member's squared
    distance to its nearest strum, and 0 for padding, and sums it over the
    pattern's onset slots through a plan of shared partial sums
    (_onset_plan), so that a slab adds each distinct partial sum once.
    These lookups and the plan are built once per vocabulary and kept while
    it lives.

    Played measures are grouped by strum count S and each group is taken in
    slabs of about _SLAB_ELEMENTS (measures x patterns) cells. A cell's two
    sums, over its S strums and over the half's longest onset list, are
    whole-slab vector adds in the order numpy's pairwise sum adds a
    C-contiguous row of that length (_pairwise_order). Every other step is
    the same IEEE operation on the same operands as a dense pattern x strum
    x onset evaluation: subtract, min, square, add, and the division by
    2 sigma^2, where that evaluation's abs leaves a nonnegative difference
    as it is. So the tables match that evaluation (tests/oracles.py) bit
    for bit.
    """
    n_measures = len(measures)
    denom = 2.0 * cfg.timing_sigma * cfg.timing_sigma
    counts = np.array([len(m.positions) for m in measures], dtype=np.intp)
    silent = np.flatnonzero(counts == 0)

    setup = compiled(vocab).tables
    tables = tuple(np.full((n_measures, half[0]), np.inf) for half in setup)
    for table, (width, silent_columns, alphabet, plan, below, above) in zip(tables, setup):
        table[np.ix_(silent, silent_columns)] = 0.0
        if alphabet is None:
            continue
        per_slab = max(1, _SLAB_ELEMENTS // width)
        for count in np.flatnonzero(np.bincount(counts)[1:]) + 1:
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
                    np.subtract(strum, low, out=low)
                    np.subtract(high, strum, out=high)
                    np.minimum(low, high, out=low)
                    return np.multiply(low, low, out=low)

                mismatch = _row_sums(int(count), to_pattern)
                mismatch += _plan_sums(plan, nearest_sq)
                mismatch /= denom
                table[chosen] = mismatch
    return tables
