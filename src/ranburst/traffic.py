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

:func:`arrival_outcome` states the admission rule for one state and is the
specification; :func:`arrival_outcomes` resolves it for an array of states
at once, with the least downgrade and discard counts in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
_KIND_CODE = {kind: code for code, kind in enumerate(EVENT_KINDS)}


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
        for name in ("arrival_rate", "service_rate", "downgraded_service_rate"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"class {self.id}: {name} must be finite, got {value}")
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


def _reject_duplicate_ids(classes: list[TrafficClass]) -> None:
    """Raise ``ValueError`` when two classes share an id, which keys their
    results and labels."""
    ids = [c.id for c in classes]
    if len(set(ids)) < len(ids):
        raise ValueError(f"class ids must be distinct, got {ids}")


def build_dimensions(
    policy: str, classes: list[TrafficClass], capacity_blocks: int
) -> list[Dimension]:
    """Expand traffic classes into the state dimensions of a policy."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    for cls in classes:
        cls.validate()
    _reject_duplicate_ids(classes)

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


class ArrivalOutcomes(NamedTuple):
    """:func:`arrival_outcome` for each row of a state array.

    ``target[i]`` is the state an arrival at row ``i`` leads to (the row
    itself when ``rejected[i]``); ``downgraded[i]`` and ``discarded[i]``
    count sessions as :class:`Transition` does; ``kind[i]`` indexes
    :data:`EVENT_KINDS` with the transition's kind.
    """

    target: np.ndarray
    rejected: np.ndarray
    downgraded: np.ndarray
    discarded: np.ndarray
    kind: np.ndarray


def _ceil_div(a: np.ndarray, b) -> np.ndarray:
    return -(-a // b)


def arrival_outcomes(
    policy: str,
    counts: np.ndarray,
    dim: int,
    dims: list[Dimension],
    capacity: int,
) -> ArrivalOutcomes:
    """Resolve an arrival of dimension ``dim`` at every row of ``counts``.

    The array form of :func:`arrival_outcome`, for an ``(m, len(dims))``
    int array of feasible states. Its cascade probes become closed forms,
    each the least count that meets the capacity and the session caps,
    with ``occ`` the occupied blocks, ``d`` the demands and ``cap`` the
    caps:

    * NC2 priority: discard ``max(1, ceil((occ + d0 - C) / d1))``
      low-priority sessions, if there are that many and ``n0 + 1 <= cap0``.
    * NC3 priority: downgrade ``k = max(1, ceil((occ + d0 - C) / (d1 - d2)))``
      full-rate sessions, if there are that many and ``n_down + k <= cap2``;
      otherwise downgrade all of them and discard ``max(1, pool - cap2,
      ceil(((n0 + 1) d0 + pool d2 - C) / d2))`` of the ``pool = n_full +
      n_down`` video sessions, if there are that many. Either needs
      ``n0 + 1 <= cap0``.
    * NC3 video: a blocked arrival is admitted downgraded when
      ``(n0, n1, n2 + 1)`` is feasible.
    """
    counts = np.asarray(counts, dtype=np.int64)
    demand = np.array([d.demand_blocks for d in dims], dtype=np.int64)
    # A count never passes C // demand, so the caps are read below it, as
    # the state box reads them; any larger cap gives the same arcs.
    cap = np.array([min(d.max_sessions, capacity // d.demand_blocks) for d in dims],
                   dtype=np.int64)
    occ = counts @ demand
    rejected = (counts[:, dim] >= cap[dim]) | (occ + demand[dim] > capacity)
    target = counts.copy()
    target[:, dim] += ~rejected
    downgraded = np.zeros(len(counts), dtype=np.int64)
    discarded = np.zeros(len(counts), dtype=np.int64)
    # Rows admitted by the policy's cascade, and the kind of their arc.
    cascade, cascade_kind = np.zeros(len(counts), dtype=bool), ARRIVAL_ACCEPTED

    if policy == "NC2" and dim == 0:
        n0, n1 = counts.T
        k = np.maximum(1, _ceil_div(occ + demand[0] - capacity, demand[1]))
        cut = rejected & (n0 < cap[0]) & (k <= n1)
        discarded = np.where(cut, k, 0)
        target[:, 0] += cut
        target[:, 1] -= discarded
        rejected &= ~cut
        cascade, cascade_kind = cut, PREEMPT_DISCARD

    elif policy == "NC3" and dim == 0:
        n0, n_full, n_down = counts.T
        d0, d1, d2 = demand
        blocked = rejected & (n0 < cap[0])
        k = np.maximum(1, _ceil_div(occ + d0 - capacity, d1 - d2))
        down = blocked & (k <= n_full) & (n_down + k <= cap[2])
        pool = n_full + n_down
        j = np.maximum(np.maximum(1, pool - cap[2]),
                       _ceil_div((n0 + 1) * d0 + pool * d2 - capacity, d2))
        cut = blocked & ~down & (j <= pool)
        downgraded = np.where(down, k, np.where(cut, n_full, 0))
        discarded = np.where(cut, j, 0)
        admitted = down | cut
        target[:, 0] += admitted
        target[:, 1] -= downgraded
        target[:, 2] += downgraded - discarded
        rejected &= ~admitted
        cascade, cascade_kind = admitted, DOWNGRADE_CASCADE

    elif policy == "NC3" and dim == 1:
        down = rejected & (counts[:, 2] < cap[2]) & (occ + demand[2] <= capacity)
        downgraded = down.astype(np.int64)
        target[:, 2] += down
        rejected &= ~down
        cascade, cascade_kind = down, ARRIVAL_DOWNGRADED

    kind = np.where(rejected, _KIND_CODE[ARRIVAL_REJECTED], _KIND_CODE[ARRIVAL_ACCEPTED])
    kind[cascade] = _KIND_CODE[cascade_kind]
    return ArrivalOutcomes(target, rejected, downgraded, discarded, kind.astype(np.int8))


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

