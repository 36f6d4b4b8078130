"""Traffic classes, the Markov state, and the policy transition systems.

Three admission policies over one block pool of capacity ``C``:

* ``NC1`` -- shared pool, no priority: an arrival is accepted iff its demand
  fits, otherwise rejected.
* ``NC2`` -- the first class has preemptive priority: a blocked priority
  arrival discards the minimum number of ongoing low-priority sessions that
  makes it fit, and is rejected only if even discarding every one of them
  would not help.
* ``NC3`` -- priority plus adaptive video: ongoing full-rate sessions are
  first downgraded to a smaller demand (minimum number); only when all of
  them are downgraded are downgraded sessions discarded (again the minimum
  number). A blocked low-priority arrival is itself admitted at the
  downgraded rate when that fits, without touching ongoing sessions.

States are plain tuples of per-dimension session counts. Sessions within a
dimension are exchangeable (memoryless holding times), so counts fully
determine the chain and no victim identity is tracked.
"""

from __future__ import annotations

from dataclasses import dataclass

POLICIES = ("NC1", "NC2", "NC3")

ARRIVAL_ACCEPTED = "arrival_accepted"
ARRIVAL_REJECTED = "arrival_rejected"
ARRIVAL_DOWNGRADED = "arrival_downgraded"
DEPARTURE = "departure"
PREEMPT_DISCARD = "preempt_discard"
DOWNGRADE_CASCADE = "downgrade_cascade"

EVENT_KINDS = (
    ARRIVAL_ACCEPTED,
    ARRIVAL_REJECTED,
    ARRIVAL_DOWNGRADED,
    DEPARTURE,
    PREEMPT_DISCARD,
    DOWNGRADE_CASCADE,
)


@dataclass(frozen=True)
class TrafficClass:
    """One offered traffic type.

    Rates are per second. ``demand_blocks`` is the per-session demand in
    allocation blocks; ``downgraded_demand_blocks`` (and optionally
    ``downgraded_service_rate``) are only meaningful for adaptive classes.
    """

    id: int
    arrival_rate: float
    service_rate: float
    demand_blocks: int
    max_sessions: int
    priority: str = "none"  # high | low | none
    adaptive: bool = False
    downgraded_demand_blocks: int | None = None
    downgraded_service_rate: float | None = None

    def validate(self) -> None:
        if self.arrival_rate < 0:
            raise ValueError(f"class {self.id}: arrival rate must be >= 0")
        if self.service_rate <= 0:
            raise ValueError(f"class {self.id}: service rate must be > 0")
        if self.demand_blocks < 1:
            raise ValueError(f"class {self.id}: demand must be at least one block")
        if self.max_sessions < 1:
            raise ValueError(f"class {self.id}: max sessions must be >= 1")
        if self.priority not in ("high", "low", "none"):
            raise ValueError(f"class {self.id}: unknown priority {self.priority!r}")
        if self.adaptive:
            if self.downgraded_demand_blocks is None:
                raise ValueError(
                    f"class {self.id}: adaptive class needs a downgraded demand"
                )
            if not 1 <= self.downgraded_demand_blocks < self.demand_blocks:
                raise ValueError(
                    f"class {self.id}: downgraded demand must be smaller than "
                    f"the full-rate demand and at least one block"
                )
            if self.downgraded_service_rate is not None and self.downgraded_service_rate <= 0:
                raise ValueError(f"class {self.id}: downgraded service rate must be > 0")
        elif self.downgraded_demand_blocks is not None:
            raise ValueError(
                f"class {self.id}: downgraded demand given for a non-adaptive class"
            )


@dataclass(frozen=True)
class Dimension:
    """One coordinate of the Markov state.

    Under NC1/NC2 dimensions coincide with traffic classes; under NC3 the
    adaptive class splits into a full-rate and a downgraded dimension. The
    downgraded dimension has no arrival stream of its own: it is fed by
    downgrade cascades and downgraded admissions.
    """

    index: int
    label: str
    arrival_rate: float
    service_rate: float
    demand_blocks: int
    max_sessions: int
    source_class: int
    downgraded: bool = False


def build_dimensions(
    policy: str, classes: list[TrafficClass], capacity_blocks: int
) -> list[Dimension]:
    """Expand traffic classes into the state dimensions of a policy."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    for cls in classes:
        cls.validate()

    if policy == "NC1":
        if any(c.priority != "none" for c in classes):
            raise ValueError("NC1 is priority-free; all classes must have priority 'none'")
        if any(c.adaptive for c in classes):
            raise ValueError("NC1 has no downgrade arcs; classes must be non-adaptive")
        return [
            Dimension(i, f"class{c.id}", c.arrival_rate, c.service_rate,
                      c.demand_blocks, c.max_sessions, c.id)
            for i, c in enumerate(classes)
        ]

    if len(classes) != 2:
        raise ValueError(f"{policy} expects exactly two classes, got {len(classes)}")
    prio, low = classes
    if prio.priority != "high" or low.priority != "low":
        raise ValueError(f"{policy} expects the first class 'high' and the second 'low'")
    if prio.adaptive:
        raise ValueError("the priority class cannot be adaptive")

    dims = [
        Dimension(0, f"class{prio.id}", prio.arrival_rate, prio.service_rate,
                  prio.demand_blocks, prio.max_sessions, prio.id),
        Dimension(1, f"class{low.id}", low.arrival_rate, low.service_rate,
                  low.demand_blocks, low.max_sessions, low.id),
    ]
    if policy == "NC2":
        if low.adaptive:
            raise ValueError("NC2 video is non-adaptive; use NC3 for adaptive classes")
        return dims

    if not low.adaptive:
        raise ValueError("NC3 requires the low-priority class to be adaptive")
    down_demand = low.downgraded_demand_blocks
    assert down_demand is not None
    dims.append(
        Dimension(
            index=2,
            label=f"class{low.id}_down",
            arrival_rate=0.0,
            service_rate=(low.downgraded_service_rate
                          if low.downgraded_service_rate is not None
                          else low.service_rate),
            demand_blocks=down_demand,
            max_sessions=capacity_blocks // down_demand,
            source_class=low.id,
            downgraded=True,
        )
    )
    return dims


@dataclass(frozen=True)
class Transition:
    """One outgoing arc of the chain, with loss/downgrade bookkeeping.

    ``downgraded`` counts full-rate -> downgraded conversions caused by this
    transition (for downgraded admissions: the arriving session itself);
    ``discarded`` counts sessions dropped by it. Rejected arrivals are
    self-loops kept for ratio bookkeeping and excluded from generator
    matrices.
    """

    target: tuple[int, ...]
    rate: float
    kind: str
    dim: int
    downgraded: int = 0
    discarded: int = 0


def occupied(counts: tuple[int, ...], dims: list[Dimension]) -> int:
    """Blocks in use: sum of per-dimension counts times demand."""
    return sum(c * d.demand_blocks for c, d in zip(counts, dims))


def feasible(counts: tuple[int, ...], dims: list[Dimension], capacity: int) -> bool:
    return (
        all(0 <= c <= d.max_sessions for c, d in zip(counts, dims))
        and occupied(counts, dims) <= capacity
    )


def admissible(
    counts: tuple[int, ...], dim: int, dims: list[Dimension], capacity: int
) -> bool:
    """True iff one more session of ``dim`` fits directly (no cascade)."""
    return (
        counts[dim] + 1 <= dims[dim].max_sessions
        and occupied(counts, dims) + dims[dim].demand_blocks <= capacity
    )


def _bump(counts: tuple[int, ...], dim: int, delta: int) -> tuple[int, ...]:
    lst = list(counts)
    lst[dim] += delta
    return tuple(lst)


def arrival_outcome(
    policy: str,
    counts: tuple[int, ...],
    dim: int,
    dims: list[Dimension],
    capacity: int,
    rate: float,
) -> Transition:
    """Resolve an arrival of dimension ``dim`` under a policy's admission rule.

    Returns the unique arrival transition from ``counts`` (accepted,
    rejected, downgraded-admit, preemption, or downgrade cascade) carrying
    ``rate``.
    """
    if admissible(counts, dim, dims, capacity):
        return Transition(_bump(counts, dim, +1), rate, ARRIVAL_ACCEPTED, dim)

    if policy == "NC2" and dim == 0:
        # Discard the minimum number of low-priority sessions that lets the
        # priority session in.
        for k in range(1, counts[1] + 1):
            target = (counts[0] + 1, counts[1] - k)
            if feasible(target, dims, capacity):
                return Transition(target, rate, PREEMPT_DISCARD, dim, discarded=k)

    elif policy == "NC3" and dim == 0:
        n_full, n_down = counts[1], counts[2]
        # First try downgrading the minimum number of full-rate sessions.
        for k in range(1, n_full + 1):
            target = (counts[0] + 1, n_full - k, n_down + k)
            if feasible(target, dims, capacity):
                return Transition(target, rate, DOWNGRADE_CASCADE, dim, downgraded=k)
        # All full-rate sessions downgraded: discard the minimum number of
        # (now all downgraded) sessions.
        pool = n_full + n_down
        for j in range(1, pool + 1):
            target = (counts[0] + 1, 0, pool - j)
            if feasible(target, dims, capacity):
                return Transition(
                    target, rate, DOWNGRADE_CASCADE, dim,
                    downgraded=n_full, discarded=j,
                )

    elif policy == "NC3" and dim == 1:
        # A blocked video arrival is admitted at the downgraded rate when
        # that fits; ongoing sessions are never touched for video arrivals.
        target = _bump(counts, 2, +1)
        if feasible(target, dims, capacity):
            return Transition(target, rate, ARRIVAL_DOWNGRADED, dim, downgraded=1)

    return Transition(counts, rate, ARRIVAL_REJECTED, dim)


def transitions(
    policy: str,
    counts: tuple[int, ...],
    dims: list[Dimension],
    capacity: int,
) -> list[Transition]:
    """All outgoing arcs from ``counts``: one arrival arc per dimension with a
    positive arrival rate (rejections included as self-loops) and one
    departure arc per occupied dimension."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    arcs = []
    for d in dims:
        if d.arrival_rate > 0:
            arcs.append(
                arrival_outcome(policy, counts, d.index, dims, capacity, d.arrival_rate)
            )
    for d in dims:
        if counts[d.index] > 0:
            arcs.append(
                Transition(
                    _bump(counts, d.index, -1),
                    counts[d.index] * d.service_rate,
                    DEPARTURE,
                    d.index,
                )
            )
    return arcs

