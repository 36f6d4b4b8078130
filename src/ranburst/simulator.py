"""Event-driven Monte-Carlo simulation of the policy chains.

``run_replication`` samples the continuous-time chain directly (draw an
exponential holding time at the total outgoing rate, pick an arc
proportionally to its rate), with a burst-injection schedule layered on top
and deterministic per-replication seeding. Identical (scenario, seed) pairs
reproduce trajectories bit for bit. The first time a state is visited it is
proved feasible and its arcs are resolved through the policy; afterwards
they are looked up in a table that lives for one ``run_experiment`` or
``run_replication`` call.

A second engine (``crn=True``) pre-draws the arrival processes and
per-arrival service marks from seed streams that do not depend on the
policy, so two policies can be compared on the same offered traffic. It
samples the same process law and exists for variance-reduced comparisons.
"""

from __future__ import annotations

import heapq
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import kaufman_roberts
from .errors import ScenarioError
from .numerology import RadioConfig
from .traffic import (
    ARRIVAL_ACCEPTED,
    ARRIVAL_DOWNGRADED,
    ARRIVAL_REJECTED,
    DEPARTURE,
    DOWNGRADE_CASCADE,
    EVENT_KINDS,
    PREEMPT_DISCARD,
    Dimension,
    TrafficClass,
    arrival_outcome,
    build_dimensions,
    feasible,
)

BATCH = "batch"
POISSON = "poisson"
BATCH_PLUS_POISSON = "batch_plus_poisson"
INJECTION_MODES = (BATCH, POISSON, BATCH_PLUS_POISSON)

# Most points a reporting grid (``horizon_ms / grid_ms + 1``) may have: 80 MB
# per gridded curve. The bundled scenarios use 601; the long-run checks of the
# simulator use up to 2.7M at the default 10 ms step.
MAX_GRID_POINTS = 10_000_000

# Largest injection ``batch_size``. A batch records one event per offer, even
# once every offer is rejected: a replication with 1,000,000 offers holds
# 17 MB of record columns and peaks near 170 MB while it runs. The bundled
# scenarios use at most 52.
MAX_BATCH_SIZE = 1_000_000

EMPTY_START = "empty_start"
STATIONARY_VIDEO_START = "stationary_video_start"
WARMUPS = (EMPTY_START, STATIONARY_VIDEO_START)


@dataclass(frozen=True)
class InjectionSchedule:
    """Burst of priority sessions entering at ``t_inject_ms``.

    * ``batch``: ``batch_size`` sessions offered back to back at the
      injection instant, each one walking the policy's admission cascade.
    * ``poisson``: offers arrive at ``poisson_rate`` per (scaled) second
      from the injection instant onward. With ``batch_size > 0`` the stream
      stops once that many sessions have been *admitted* -- the burst is a
      fixed amount of work that keeps being offered until delivered, the
      way an event-repetition burst behaves; with ``batch_size == 0`` it
      runs to the horizon.
    * ``batch_plus_poisson``: the batch at the injection instant plus an
      unbounded tail stream.
    """

    mode: str
    t_inject_ms: float
    batch_size: int = 0
    poisson_rate: float = 0.0

    def validate(self) -> None:
        if self.mode not in INJECTION_MODES:
            raise ScenarioError(f"unknown injection mode {self.mode!r}")
        if not (math.isfinite(self.t_inject_ms) and self.t_inject_ms >= 0):
            raise ScenarioError("injection time must be finite and >= 0")
        if self.batch_size < 0 or self.poisson_rate < 0:
            raise ScenarioError("injection batch size and rate must be >= 0")
        if self.batch_size > MAX_BATCH_SIZE:
            raise ScenarioError(f"injection batch size must be at most {MAX_BATCH_SIZE}")
        if self.batch_size == 0 and self.poisson_rate == 0:
            raise ScenarioError("injection needs a batch size or a poisson rate")
        if self.mode in (BATCH, BATCH_PLUS_POISSON) and self.batch_size == 0:
            raise ScenarioError(f"{self.mode} injection needs batch_size > 0")
        if self.mode in (POISSON, BATCH_PLUS_POISSON) and self.poisson_rate == 0:
            raise ScenarioError(f"{self.mode} injection needs poisson_rate > 0")

    @property
    def has_batch(self) -> bool:
        return self.mode in (BATCH, BATCH_PLUS_POISSON)

    @property
    def has_stream(self) -> bool:
        return self.mode in (POISSON, BATCH_PLUS_POISSON)


@dataclass(frozen=True)
class Scenario:
    """A complete experiment description.

    ``time_scale`` multiplies every configured rate (class arrival and
    service rates and the injection rate); wall-clock keys such as the
    horizon and injection instant are untouched. It exists because nominal
    parameter sets may use a time unit far slower than the transient window
    of interest.
    """

    policy: str
    radio: RadioConfig
    classes: tuple[TrafficClass, ...]
    injection: InjectionSchedule | None
    horizon_ms: float
    warmup: str = EMPTY_START
    replications: int = 1
    base_seed: int = 0
    time_scale: float = 1.0
    early_stop_at_goose_cap: bool = False
    grid_ms: float = 10.0
    initial_counts: tuple[int, ...] | None = None
    label: str = ""
    description: str = ""
    figure: str = ""

    def dimensions(self) -> list[Dimension]:
        return build_dimensions(self.policy, list(self.classes), self.radio.capacity_blocks)

    def validate(self) -> None:
        try:
            dims = self.dimensions()
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        if not (math.isfinite(self.horizon_ms) and self.horizon_ms > 0):
            raise ScenarioError("horizon must be positive and finite")
        if self.injection is not None:
            self.injection.validate()
            if self.injection.t_inject_ms >= self.horizon_ms:
                raise ScenarioError("horizon must exceed the injection time")
        if self.replications < 1:
            raise ScenarioError("replications must be >= 1")
        if self.warmup not in WARMUPS:
            raise ScenarioError(f"unknown warmup {self.warmup!r}")
        if self.warmup == STATIONARY_VIDEO_START and len(self.classes) < 2:
            raise ScenarioError("stationary_video_start needs a second (video) class")
        if not (math.isfinite(self.time_scale) and self.time_scale > 0):
            raise ScenarioError("time_scale must be positive and finite")
        if not (math.isfinite(self.grid_ms) and self.grid_ms > 0):
            raise ScenarioError("grid_ms must be positive and finite")
        steps = self.horizon_ms / self.grid_ms
        if not math.isfinite(steps) or round(steps) + 1 > MAX_GRID_POINTS:
            raise ScenarioError(
                f"horizon_ms / grid_ms gives more than {MAX_GRID_POINTS} grid points"
            )
        if self.initial_counts is not None:
            if len(self.initial_counts) != len(dims):
                raise ScenarioError(
                    f"initial_counts needs {len(dims)} entries, got {len(self.initial_counts)}"
                )
            if not feasible(tuple(self.initial_counts), dims, self.radio.capacity_blocks):
                raise ScenarioError("initial_counts is not a feasible state")


_KIND_CODE = {kind: code for code, kind in enumerate(EVENT_KINDS)}


def _int_dtype(bound: int) -> type:
    """int16 if it holds every integer from 0 to ``bound``, else int32.

    A session holds at least one block, so session counts, downgrade and
    discard counts are bounded by the capacity, dimension indices by the
    number of dimensions, and state indices by the number of states.
    """
    return np.int16 if bound <= np.iinfo(np.int16).max else np.int32


class Event(NamedTuple):
    """One recorded transition; ``counts`` is the state after it."""

    t_ms: float
    kind: str
    dim: int
    downgraded: int
    discarded: int
    counts: tuple[int, ...]


@dataclass(eq=False)
class TrajectoryRecord:
    """Piecewise-constant sample path of one replication, held as columns.

    Event ``i`` happens at ``t_ms[i]``; ``kind[i]`` indexes
    :data:`~ranburst.traffic.EVENT_KINDS`; ``dim``, ``downgraded`` and
    ``discarded`` are the transition's bookkeeping; the state after it is
    row ``state[i]`` of ``states``, a table of the distinct states the path
    enters, in order of first entry. The integer columns other than
    ``kind`` are int16 when their values allow (see :func:`_int_dtype`) and
    int32 otherwise. ``events`` rebuilds the same path as a list of
    :class:`Event` on every access.
    """

    policy: str
    capacity: int
    dim_labels: tuple[str, ...]
    demands: tuple[int, ...]
    initial_counts: tuple[int, ...]
    t_ms: np.ndarray  # float64, (n,)
    kind: np.ndarray  # int8, (n,)
    dim: np.ndarray  # (n,)
    downgraded: np.ndarray  # (n,)
    discarded: np.ndarray  # (n,)
    state: np.ndarray  # (n,): row of ``states`` entered
    states: np.ndarray  # (distinct states, n_dims)
    end_ms: float
    horizon_ms: float
    t_inject_ms: float | None
    seed: int
    replication: int = 0
    stopped_early: bool = False

    @classmethod
    def from_events(cls, events: list[Event], **fields) -> TrajectoryRecord:
        """A record of ``events``; ``fields`` are the remaining attributes."""
        n_dims = len(fields["initial_counts"])
        small = _int_dtype(max(fields["capacity"], n_dims))
        rows: dict[tuple[int, ...], int] = {}
        state = [rows.setdefault(tuple(e.counts), len(rows)) for e in events]
        return cls(
            t_ms=np.array([e.t_ms for e in events], dtype=np.float64),
            kind=np.array([_KIND_CODE[e.kind] for e in events], dtype=np.int8),
            dim=np.array([e.dim for e in events], dtype=small),
            downgraded=np.array([e.downgraded for e in events], dtype=small),
            discarded=np.array([e.discarded for e in events], dtype=small),
            state=np.array(state, dtype=_int_dtype(len(rows))),
            states=np.array(list(rows), dtype=small).reshape(len(rows), n_dims),
            **fields,
        )

    @property
    def n_dims(self) -> int:
        return len(self.initial_counts)

    @property
    def n_events(self) -> int:
        return len(self.t_ms)

    @property
    def events(self) -> list[Event]:
        """The path as :class:`Event` tuples, built anew on each access."""
        counts = [tuple(row) for row in self.states.tolist()]
        return [
            Event(t, EVENT_KINDS[k], d, dw, dc, counts[s])
            for t, k, d, dw, dc, s in zip(
                self.t_ms.tolist(), self.kind.tolist(), self.dim.tolist(),
                self.downgraded.tolist(), self.discarded.tolist(), self.state.tolist(),
            )
        ]

    def final_counts(self) -> tuple[int, ...]:
        if not self.n_events:
            return self.initial_counts
        return tuple(self.states[self.state[-1]].tolist())


def mix_seed(base_seed: int, replication: int) -> int:
    """Deterministic, platform-stable per-replication seed."""
    ss = np.random.SeedSequence((base_seed, replication))
    return int(ss.generate_state(1, np.uint64)[0])


def _initial_state(scenario: Scenario, dims: list[Dimension], rng) -> tuple[int, ...]:
    if scenario.initial_counts is not None:
        return tuple(scenario.initial_counts)
    counts = [0] * len(dims)
    if scenario.warmup == STATIONARY_VIDEO_START:
        video = scenario.classes[1]
        solo = TrafficClass(
            id=video.id,
            arrival_rate=video.arrival_rate,
            service_rate=video.service_rate,
            demand_blocks=video.demand_blocks,
            max_sessions=video.max_sessions,
        )
        dist = kaufman_roberts([solo], scenario.radio.capacity_blocks)
        blocks = int(rng.choice(len(dist.q), p=dist.q))
        counts[1] = blocks // video.demand_blocks
    return tuple(counts)


def run_replication(scenario: Scenario, seed: int, crn: bool = False) -> TrajectoryRecord:
    """Simulate one replication; bit-for-bit reproducible from (scenario, seed)."""
    scenario.validate()
    if crn:
        return _run_replication_crn(scenario, seed)
    return _run_direct(scenario, seed, _ArcTable(len(scenario.dimensions())))


# An arc as the engine follows it: (arc id, kind, target state).
Arc = tuple[int, str, tuple[int, ...]]


class _StateArcs:
    """Resolved outgoing arcs of one visited state.

    ``arrivals`` pairs each positive class arrival rate with its arc, in
    dimension order; ``departures`` pairs each positive departure rate with
    its arc; ``departure_total`` is the sum of those rates. ``offer``, the
    arc of an injected priority offer, is resolved on first use: most
    states are never visited while the burst is being offered.
    """

    __slots__ = ("arrivals", "departures", "departure_total", "offer")

    def __init__(self, arrivals, departures, departure_total):
        self.arrivals: list[tuple[float, Arc]] = arrivals
        self.departures: list[tuple[float, Arc]] = departures
        self.departure_total: float = departure_total
        self.offer: Arc | None = None


class _ArcTable:
    """The arcs resolved so far, shared by the replications of one scenario
    in one process.

    ``by_state`` maps each visited state to its :class:`_StateArcs`. Every
    arc gets an integer id when it is resolved: row ``id`` of ``rows`` is
    ``(kind code, dim, downgraded, discarded, target id, *target counts)``.
    A path is kept as a list of arc ids and turned into record columns by
    :meth:`columns`.
    """

    def __init__(self, n_dims: int):
        self.by_state: dict[tuple[int, ...], _StateArcs] = {}
        self.rows: list[tuple[int, ...]] = []
        self.target_id: dict[tuple[int, ...], int] = {}
        self._array = np.empty((0, 5 + n_dims), dtype=np.int64)  # ``rows`` so far

    def arc(self, kind: str, dim: int, downgraded: int, discarded: int,
            target: tuple[int, ...]) -> Arc:
        tid = self.target_id.setdefault(target, len(self.target_id))
        self.rows.append((_KIND_CODE[kind], dim, downgraded, discarded, tid, *target))
        return (len(self.rows) - 1, kind, target)

    def columns(self, path: list[int], capacity: int) -> dict[str, np.ndarray]:
        """Event columns of a path of arc ids, gathered in one fancy-index;
        its states are numbered in order of first entry."""
        if len(self._array) < len(self.rows):
            new = np.array(self.rows[len(self._array):], dtype=np.int64)
            self._array = np.concatenate((self._array, new))
        cols = self._array[np.array(path, dtype=np.intp)]
        _, first, inverse = np.unique(cols[:, 4], return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        small = _int_dtype(max(capacity, cols.shape[1] - 5))
        return dict(
            kind=cols[:, 0].astype(np.int8),
            dim=cols[:, 1].astype(small),
            downgraded=cols[:, 2].astype(small),
            discarded=cols[:, 3].astype(small),
            state=rank[inverse].astype(_int_dtype(len(order))),
            states=cols[first[order], 5:].astype(small),
        )


def _run_direct(scenario: Scenario, seed: int, table: _ArcTable) -> TrajectoryRecord:
    """The direct engine. ``table`` holds the arcs of each state visited so
    far; it is filled lazily and may be shared by replications of the same
    scenario."""
    dims = scenario.dimensions()
    capacity = scenario.radio.capacity_blocks
    policy = scenario.policy
    rng = np.random.default_rng(seed)
    initial = _initial_state(scenario, dims, rng)
    counts = initial

    scale = scenario.time_scale / 1000.0  # configured per-second rates -> per ms
    arr_rates = [d.arrival_rate * scale for d in dims]
    dep_rates = [d.service_rate * scale for d in dims]
    arr_total = sum(arr_rates)
    inj = scenario.injection
    has_stream = inj is not None and inj.has_stream
    inj_rate = inj.poisson_rate * scale if has_stream else 0.0
    inj_cap = inj.batch_size if inj is not None and inj.mode == POISSON else 0
    early_stop = scenario.early_stop_at_goose_cap
    goose_cap = dims[0].max_sessions
    horizon = scenario.horizon_ms
    lookup = table.by_state.get

    def outcome(state: tuple[int, ...], i: int, rate: float) -> Arc:
        tr = arrival_outcome(policy, state, i, dims, capacity, rate)
        return table.arc(tr.kind, tr.dim, tr.downgraded, tr.discarded, tr.target)

    def resolve(state: tuple[int, ...], t: float) -> _StateArcs:
        """Prove ``state`` feasible, reached at ``t``, and resolve its arcs."""
        if not feasible(state, dims, capacity):
            raise RuntimeError(f"simulation produced infeasible state {state} at t={t:.3f} ms")

        arrivals = [
            (rate, outcome(state, i, rate)) for i, rate in enumerate(arr_rates) if rate > 0.0
        ]
        departures = []
        for i, rate in enumerate(dep_rates):
            out = state[i] * rate
            if out > 0.0:
                target = list(state)
                target[i] -= 1
                departures.append((out, table.arc(DEPARTURE, i, 0, 0, tuple(target))))
        departure_total = sum(c * r for c, r in zip(state, dep_rates))
        arcs = _StateArcs(arrivals, departures, departure_total)
        table.by_state[state] = arcs
        return arcs

    def offer(state: tuple[int, ...], arcs: _StateArcs) -> Arc:
        arcs.offer = outcome(state, 0, 0.0)
        return arcs.offer

    arcs = lookup(counts) or resolve(counts, 0.0)
    times: list[float] = []
    path: list[int] = []  # arc id of each event
    t = 0.0
    delivered = 0
    injected = inj is None
    stopped = False

    while True:
        t_break = inj.t_inject_ms if not injected else horizon
        if not injected and t >= t_break:
            injected = True
            t_break = horizon
            if inj.has_batch:
                for _ in range(inj.batch_size):
                    a = arcs.offer or offer(counts, arcs)
                    times.append(t)
                    path.append(a[0])
                    counts = a[2]
                    arcs = lookup(counts) or resolve(counts, t)
                    if early_stop and counts[0] >= goose_cap:
                        stopped = True
                        break
                if stopped:
                    break

        stream_on = has_stream and injected and (inj_cap == 0 or delivered < inj_cap)
        total = arr_total + (inj_rate if stream_on else 0.0)
        total += arcs.departure_total

        if total == 0.0:
            if t_break >= horizon:
                break
            t = t_break
            continue

        dt = rng.exponential(1.0 / total)
        if t + dt >= t_break:
            if t_break >= horizon:
                break
            t = t_break
            continue  # memoryless: re-draw after the schedule changes
        t += dt

        u = rng.random() * total
        a: Arc | None = None
        for rate, arrival in arcs.arrivals:
            if u < rate:
                a = arrival
                break
            u -= rate
        if a is None and stream_on:
            if u < inj_rate:
                a = arcs.offer or offer(counts, arcs)
                if a[1] != ARRIVAL_REJECTED:
                    delivered += 1
            else:
                u -= inj_rate
        if a is None:
            for out, departure in arcs.departures:
                if u < out:
                    a = departure
                    break
                u -= out
        if a is None:
            continue  # floating-point edge at the top of the rate sum

        times.append(t)
        path.append(a[0])
        counts = a[2]
        arcs = lookup(counts) or resolve(counts, t)
        if early_stop and counts[0] >= goose_cap:
            stopped = True
            break

    end = t if stopped else horizon
    return TrajectoryRecord(
        policy=policy,
        capacity=capacity,
        dim_labels=tuple(d.label for d in dims),
        demands=tuple(d.demand_blocks for d in dims),
        initial_counts=initial,
        t_ms=np.array(times, dtype=np.float64),
        **table.columns(path, capacity),
        end_ms=end,
        horizon_ms=horizon,
        t_inject_ms=inj.t_inject_ms if inj is not None else None,
        seed=seed,
        stopped_early=stopped,
    )


def pool_size(workers: int | None, replications: int) -> int:
    """Worker processes worth starting: at most one per replication and one
    per CPU; 1 means run serially."""
    return max(1, min(workers or 1, replications, os.cpu_count() or 1))


def run_experiment(
    scenario: Scenario, workers: int | None = None, crn: bool = False
) -> list[TrajectoryRecord]:
    """All replications, seeded ``mix_seed(base_seed, r)``.

    Replications are independent; with ``workers`` they run in a process
    pool (clamped by :func:`pool_size`), and results are identical to a
    serial run because every replication owns a deterministic seed stream.
    The direct engine's arc table lives for this call only; each pool worker
    builds its own.
    """
    scenario.validate()
    seeds = [mix_seed(scenario.base_seed, r) for r in range(scenario.replications)]
    n_workers = pool_size(workers, scenario.replications)
    if n_workers == 1:
        records = _replicate((scenario, seeds, crn))
    else:
        from concurrent.futures import ProcessPoolExecutor

        # One contiguous chunk of seeds per worker, so that each worker fills
        # one arc table and sends its records back in one message.
        bounds = [len(seeds) * k // n_workers for k in range(n_workers + 1)]
        chunks = [(scenario, seeds[a:b], crn) for a, b in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            records = [rec for part in pool.map(_replicate, chunks) for rec in part]
    for r, record in enumerate(records):
        record.replication = r
    return records


def _replicate(args) -> list[TrajectoryRecord]:
    """Replications of one scenario for a list of seeds, sharing one arc table."""
    scenario, seeds, crn = args
    if crn:
        return [_run_replication_crn(scenario, s) for s in seeds]
    table = _ArcTable(len(scenario.dimensions()))
    return [_run_direct(scenario, s, table) for s in seeds]


# ---------------------------------------------------------------------------
# Common-random-numbers engine
# ---------------------------------------------------------------------------


class _Session:
    """One active session with a scheduled departure."""

    __slots__ = ("dim", "admitted_ms", "alive", "token")

    def __init__(self, dim: int, admitted_ms: float):
        self.dim = dim
        self.admitted_ms = admitted_ms
        self.alive = True
        self.token = 0


class _Calendar:
    """Session registry plus a lazy-deletion departure heap."""

    def __init__(self, n_dims: int):
        self.active: list[list[_Session]] = [[] for _ in range(n_dims)]
        self.heap: list[tuple[float, int, int, _Session]] = []
        self._seq = 0

    def counts(self) -> tuple[int, ...]:
        return tuple(len(lst) for lst in self.active)

    def schedule(self, session: _Session, when: float) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (when, self._seq, session.token, session))

    def admit(self, dim: int, t: float, holding_ms: float) -> None:
        s = _Session(dim, t)
        self.active[dim].append(s)
        self.schedule(s, t + holding_ms)

    def drop_oldest(self, dim: int) -> None:
        s = self.active[dim].pop(0)
        s.alive = False

    def move_oldest(self, src: int, dst: int, reschedule_ms: float | None, t: float) -> None:
        s = self.active[src].pop(0)
        s.dim = dst
        self.active[dst].append(s)
        if reschedule_ms is not None:
            s.token += 1  # invalidate the old departure entry
            self.schedule(s, t + reschedule_ms)

    def next_departure(self) -> tuple[float, _Session] | None:
        while self.heap:
            when, _, token, session = self.heap[0]
            if session.alive and token == session.token:
                return when, session
            heapq.heappop(self.heap)
        return None

    def pop_departure(self) -> tuple[float, _Session]:
        when, _, _, session = heapq.heappop(self.heap)
        session.alive = False
        self.active[session.dim].remove(session)
        return when, session


def _run_replication_crn(scenario: Scenario, seed: int) -> TrajectoryRecord:
    dims = scenario.dimensions()
    capacity = scenario.radio.capacity_blocks
    policy = scenario.policy
    horizon = scenario.horizon_ms
    scale = scenario.time_scale / 1000.0
    dep_rates = [d.service_rate * scale for d in dims]

    ss = np.random.SeedSequence(seed)
    init_ss, arr_ss, inj_ss, extra_ss = ss.spawn(4)
    rng_init = np.random.default_rng(init_ss)
    rng_extra = np.random.default_rng(extra_ss)

    initial = _initial_state(scenario, dims, rng_init)

    # Offered traffic is drawn up front from streams independent of the
    # policy: scenarios differing only in policy see the same arrival
    # instants and the same per-arrival service marks.
    arrivals: list[tuple[float, int, float]] = []  # (t, dim, unit-exp mark)
    for child, d in zip(arr_ss.spawn(len(dims)), dims):
        rate = d.arrival_rate * scale
        if rate <= 0:
            continue
        rng = np.random.default_rng(child)
        t = rng.exponential(1.0 / rate)
        while t < horizon:
            arrivals.append((t, d.index, rng.exponential()))
            t += rng.exponential(1.0 / rate)
    arrivals.sort(key=lambda item: item[0])

    inj = scenario.injection
    offers: list[tuple[float, float]] = []  # (t, unit-exp mark)
    if inj is not None:
        rng = np.random.default_rng(inj_ss)
        if inj.has_batch:
            offers.extend((inj.t_inject_ms, rng.exponential()) for _ in range(inj.batch_size))
        if inj.has_stream:
            rate = inj.poisson_rate * scale
            t = inj.t_inject_ms + rng.exponential(1.0 / rate)
            while t < horizon:
                offers.append((t, rng.exponential()))
                t += rng.exponential(1.0 / rate)

    cal = _Calendar(len(dims))
    for i, n0 in enumerate(initial):
        for _ in range(n0):
            cal.admit(i, 0.0, rng_init.exponential() / dep_rates[i])

    inj_cap = inj.batch_size if inj is not None and inj.mode == POISSON else 0
    delivered = 0
    goose_cap = dims[0].max_sessions
    same_rate = len(dims) == 3 and dims[1].service_rate == dims[2].service_rate
    events: list[Event] = []
    stopped = False
    t_now = 0.0
    ia = io = 0

    while True:
        t_arr = arrivals[ia][0] if ia < len(arrivals) else float("inf")
        t_off = offers[io][0] if io < len(offers) else float("inf")
        nxt = cal.next_departure()
        t_dep = nxt[0] if nxt is not None else float("inf")

        t_next = min(t_arr, t_off, t_dep)
        if t_next >= horizon:
            break
        t_now = t_next

        if t_dep <= t_arr and t_dep <= t_off:
            _, session = cal.pop_departure()
            counts = cal.counts()
            events.append(Event(t_now, DEPARTURE, session.dim, 0, 0, counts))
        else:
            if t_arr <= t_off:
                _, dim, mark = arrivals[ia]
                ia += 1
                is_offer = False
            else:
                _, mark = offers[io]
                dim = 0
                io += 1
                is_offer = True
                if inj_cap and delivered >= inj_cap:
                    continue  # burst delivered; later offers lapse
            tr = arrival_outcome(policy, cal.counts(), dim, dims, capacity, 0.0)
            if tr.kind == ARRIVAL_ACCEPTED:
                cal.admit(dim, t_now, mark / dep_rates[dim])
            elif tr.kind == ARRIVAL_DOWNGRADED:
                cal.admit(2, t_now, mark / dep_rates[2])
            elif tr.kind == PREEMPT_DISCARD:
                for _ in range(tr.discarded):
                    cal.drop_oldest(1)
                cal.admit(0, t_now, mark / dep_rates[0])
            elif tr.kind == DOWNGRADE_CASCADE:
                for _ in range(tr.downgraded):
                    # With equal service rates the remaining holding time of
                    # a downgraded session keeps its law, so the scheduled
                    # departure stands; otherwise redraw memorylessly.
                    cal.move_oldest(
                        1, 2,
                        None if same_rate else rng_extra.exponential() / dep_rates[2],
                        t_now,
                    )
                for _ in range(tr.discarded):
                    cal.drop_oldest(2)
                cal.admit(0, t_now, mark / dep_rates[0])
            counts = cal.counts()
            if counts != tr.target:
                raise RuntimeError(
                    f"calendar state {counts} diverged from transition target {tr.target}"
                )
            events.append(Event(t_now, tr.kind, tr.dim, tr.downgraded, tr.discarded, counts))
            if is_offer and tr.kind != ARRIVAL_REJECTED:
                delivered += 1

        if scenario.early_stop_at_goose_cap and cal.counts()[0] >= goose_cap:
            stopped = True
            break

    end = t_now if stopped else horizon
    return TrajectoryRecord.from_events(
        events,
        policy=policy,
        capacity=capacity,
        dim_labels=tuple(d.label for d in dims),
        demands=tuple(d.demand_blocks for d in dims),
        initial_counts=initial,
        end_ms=end,
        horizon_ms=horizon,
        t_inject_ms=inj.t_inject_ms if inj is not None else None,
        seed=seed,
        stopped_early=stopped,
    )
