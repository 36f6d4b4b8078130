"""5G NR numerologies, guard-band arithmetic, and usable-capacity derivation.

A scenario fixes its numerology by ``radio.beta``; nothing here chooses one.
The pool capacity used by the traffic models is expressed in integer
allocation blocks (the greatest common divisor of all per-session demands in
a scenario, 360 kHz in the default configuration) so that admission checks
are exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Numerology:
    """One row of the NR numerology table."""

    beta: int
    scs_khz: int
    prb_khz: int
    slots_per_subframe: int
    symbol_duration_us: float
    cp_duration_us: float


_TABLE = {
    0: Numerology(0, 15, 180, 1, 71.43, 4.69),
    1: Numerology(1, 30, 360, 2, 35.71, 2.34),
    2: Numerology(2, 60, 720, 4, 17.86, 1.17),
    3: Numerology(3, 120, 1440, 8, 8.92, 0.57),
    4: Numerology(4, 240, 2880, 16, 4.46, 0.29),
}


def lookup_numerology(beta: int) -> Numerology:
    """Return the numerology row for index ``beta`` (0..4)."""
    if beta not in _TABLE:
        raise ValueError(f"numerology index must be in 0..4, got {beta}")
    return _TABLE[beta]


def guard_band_khz(channel_bandwidth_khz: float, scs_khz: int, num_prbs: int) -> float:
    """Minimum guard band on each side of the carrier, in kHz.

    Half of whatever the allocated PRBs (12 sub-carriers each) leave unused
    in the channel. Raises ValueError when the bandwidth is not finite or
    the allocation does not fit.
    """
    if not math.isfinite(channel_bandwidth_khz):
        raise ValueError(f"channel bandwidth must be finite, got {channel_bandwidth_khz} kHz")
    occupied = num_prbs * scs_khz * 12
    if occupied > channel_bandwidth_khz:
        raise ValueError(
            f"infeasible allocation: {num_prbs} PRBs at {scs_khz} kHz SCS "
            f"occupy {occupied} kHz > channel bandwidth {channel_bandwidth_khz} kHz"
        )
    return (channel_bandwidth_khz - occupied) / 2


@dataclass(frozen=True)
class RadioConfig:
    """Channel bandwidth split into guard bands and an integer block pool."""

    channel_bandwidth_khz: float
    block_khz: int
    usable_capacity_khz: int
    capacity_blocks: int


def usable_capacity(
    channel_bandwidth_khz: float,
    numerology: Numerology,
    num_prbs: int,
    block_khz: int,
    guard_overhead_khz: int = 0,
) -> RadioConfig:
    """Derive the usable capacity left inside the guard bands.

    ``block_khz`` is the allocation unit of the scenario (the gcd of all
    per-session demands); it must divide the usable capacity exactly.
    ``guard_overhead_khz`` reserves extra spectrum for guards between
    multiplexed numerologies; it defaults to 0 because that overhead is
    negligible at the granularity modelled here.
    """
    if num_prbs < 0:
        raise ValueError(f"PRB count must be non-negative, got {num_prbs}")
    if guard_overhead_khz < 0:
        raise ValueError(f"guard overhead must be non-negative, got {guard_overhead_khz} kHz")
    guard_band_khz(channel_bandwidth_khz, numerology.scs_khz, num_prbs)
    usable = num_prbs * numerology.prb_khz - guard_overhead_khz
    if usable < 0:
        raise ValueError(
            f"guard overhead {guard_overhead_khz} kHz exceeds the allocation"
        )
    if block_khz <= 0 or usable % block_khz != 0:
        raise ValueError(
            f"usable capacity {usable} kHz is not a multiple of the "
            f"allocation block {block_khz} kHz"
        )
    return RadioConfig(
        channel_bandwidth_khz=channel_bandwidth_khz,
        block_khz=block_khz,
        usable_capacity_khz=usable,
        capacity_blocks=usable // block_khz,
    )
