"""5G NR numerologies, guard-band arithmetic, and usable-capacity derivation.

The pool capacity used by the traffic models is expressed in integer
allocation blocks (the greatest common divisor of all per-session demands in
a scenario, 360 kHz in the default configuration) so that admission checks
are exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SUB6 = "sub6"
MMWAVE = "mmWave"

# FR-1 carries numerologies 0-2, FR-2 carries 2-4.
_FR1_BETAS = frozenset({0, 1, 2})
_FR2_BETAS = frozenset({2, 3, 4})


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
    guard_band_khz(channel_bandwidth_khz, numerology.scs_khz, num_prbs)
    usable = num_prbs * numerology.prb_khz - guard_overhead_khz
    if guard_overhead_khz < 0 or usable < 0:
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


@dataclass(frozen=True)
class SelectionContext:
    """Deployment facts driving the numerology choice."""

    latency_critical: bool
    carrier_band: str  # sub6 | mmWave
    cell_size: str  # small | large
    mobility: str  # low | high
    narrowband_device: bool

    def __post_init__(self):
        if self.carrier_band not in (SUB6, MMWAVE):
            raise ValueError(f"carrier_band must be sub6 or mmWave, got {self.carrier_band!r}")
        if self.cell_size not in ("small", "large"):
            raise ValueError(f"cell_size must be small or large, got {self.cell_size!r}")
        if self.mobility not in ("low", "high"):
            raise ValueError(f"mobility must be low or high, got {self.mobility!r}")


def select_numerology(ctx: SelectionContext) -> set[int]:
    """Recommend numerology indices for a deployment context.

    Deterministic rule list. The carrier band fixes the admissible range
    (FR-1: 0-2, FR-2: 2-4). Within it, each active criterion restricts
    further:

    * latency-critical service -> wider SCS for a short TTI ({2,3,4})
    * small cells on mmWave -> wider SCS against oscillator phase noise ({3,4})
    * high mobility / Doppler spread -> wider SCS ({2,3,4})
    * large cells (long delay spread) -> narrower SCS ({0,1})
    * narrowband devices -> lowest numerology ({0})

    Tie-break: when the intersection is empty, the narrow-SCS preferences
    (cell size, narrowband hardware) are dropped and the latency / phase
    noise / Doppler requirements win.
    """
    allowed = _FR1_BETAS if ctx.carrier_band == SUB6 else _FR2_BETAS

    wide_pulls: list[frozenset[int]] = []
    if ctx.latency_critical:
        wide_pulls.append(frozenset({2, 3, 4}))
    if ctx.carrier_band == MMWAVE and ctx.cell_size == "small":
        wide_pulls.append(frozenset({3, 4}))
    if ctx.mobility == "high":
        wide_pulls.append(frozenset({2, 3, 4}))

    narrow_pulls: list[frozenset[int]] = []
    if ctx.cell_size == "large":
        narrow_pulls.append(frozenset({0, 1}))
    if ctx.narrowband_device:
        narrow_pulls.append(frozenset({0}))

    candidate = set(allowed)
    for pull in wide_pulls + narrow_pulls:
        candidate &= pull
    if candidate:
        return candidate

    candidate = set(allowed)
    for pull in wide_pulls:
        candidate &= pull
    return candidate
