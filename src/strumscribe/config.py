"""The tuning sections of a run: decoder, bar-line cleanup, onset detection
and rendering.

They live apart from the stages that use them so that the CLI can build
its run config and argument parser without loading any stage module. Each
class is re-exported, as the same object, from the module of its stage:
`likelihood`, `barlines`, `onsets` and `render`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass


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
        # the emission costs divide by 2 sigma^2, which must be a normal
        # float: an overflow gives inf / inf and a subnormal or zero 0 / 0
        if not sys.float_info.min <= 2.0 * self.timing_sigma * self.timing_sigma < math.inf:
            raise ValueError(
                f"timing_sigma is out of range, got {self.timing_sigma}: "
                "2 * timing_sigma**2 must be a normal finite float"
            )
        # an infinite change penalty forbids that change; NaN compares false
        for name in ("pattern_change_penalty", "timesig_change_penalty"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class PostprocConfig:
    """Edit penalties and search bounds for bar-line cleanup.

    `lookahead` caps how far ahead the next kept estimate may be, i.e. at
    most lookahead - 1 consecutive estimates can be deleted in one span.
    """

    subdivision_factors: tuple[int, ...] = (1, 2, 3, 4)
    deletion_penalty: float = 1.0
    insertion_penalty: float = 1.0
    tempo_change_penalty: float = 8.0
    snap_tolerance_sec: float = 0.07
    lookahead: int = 4

    def __post_init__(self) -> None:
        factors = tuple(sorted(set(int(f) for f in self.subdivision_factors)))
        object.__setattr__(self, "subdivision_factors", factors)
        if not factors or factors[0] < 1:
            raise ValueError("subdivision factors must be integers >= 1")
        for name in ("deletion_penalty", "insertion_penalty", "tempo_change_penalty"):
            if not getattr(self, name) >= 0:  # NaN compares false
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.snap_tolerance_sec > 0:
            raise ValueError("snap tolerance must be > 0")
        if self.lookahead < 1:
            raise ValueError("lookahead must be >= 1")


@dataclass(frozen=True)
class OnsetConfig:
    """Envelope and peak-picking parameters.

    Window sizes are in frames. delta is the threshold above the local
    moving average of the envelope. Defaults were fixed on synthetic pluck
    trains.
    """

    frame_size: int = 2048
    hop_size: int = 512
    n_mels: int = 128
    fmin_hz: float = 30.0
    fmax_hz: float = 11025.0
    log_compression: float = 1000.0
    delta: float = 10.0
    pre_max: int = 3
    post_max: int = 3
    pre_avg: int = 8
    post_avg: int = 8
    min_gap_sec: float = 0.05

    def __post_init__(self) -> None:
        if self.hop_size > self.frame_size:
            raise ValueError("hop_size must be <= frame_size")
        if min(self.frame_size, self.hop_size, self.n_mels) < 1:
            raise ValueError("frame_size, hop_size, n_mels must be >= 1")
        if min(self.pre_max, self.post_max, self.pre_avg, self.post_avg) < 1:
            raise ValueError("peak-picking windows must be >= 1")
        if not self.min_gap_sec >= 0:  # NaN compares false
            raise ValueError(f"min_gap_sec must be >= 0, got {self.min_gap_sec}")
        for name in ("delta", "log_compression"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got nan")
        if not 0 < self.fmin_hz < self.fmax_hz:
            raise ValueError("need 0 < fmin_hz < fmax_hz")


@dataclass(frozen=True)
class RenderOptions:
    use_repeat_symbol: bool = True
    grid_resolution: int = 16
    show_pattern_ids: bool = False

    def __post_init__(self) -> None:
        if self.grid_resolution < 1:
            raise ValueError("grid_resolution must be >= 1")
